package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"copse/internal/bgv"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/model"
	"copse/internal/ring"
)

// -update regenerates the golden wire files from the current encoder.
var update = flag.Bool("update", false, "rewrite golden wire-format files")

// tinyParams is a deliberately minimal parameter set (N=16) so the
// committed golden key material stays a few kilobytes.
func tinyParams() bgv.Params {
	return bgv.Params{LogN: 4, T: 65537, PrimeBits: 40, Levels: 3, DigitBits: 30}
}

// tinyBackend builds a deterministic backend on the tiny parameters
// holding the key set the golden files were cut from: steps ±1, ±2, ±4
// (a power-of-two ladder over the 8 slots) and {3, −2} at the chain top,
// except step 3 at level 1, drawn in that order from seed 42.
func tinyBackend(t *testing.T) *hebgv.Backend {
	t.Helper()
	b, err := hebgv.New(hebgv.Config{Params: tinyParams(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var rots []he.Rotation
	for _, s := range []int{1, -1, 2, -2, 4, -4, 3, -2} {
		r := he.Rotation{Step: s, Level: b.MaxLevel()}
		if s == 3 {
			r.Level = 1
		}
		rots = append(rots, r)
	}
	if err := b.EnsureRotationKeys(rots); err != nil {
		t.Fatal(err)
	}
	return b
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

// checkGolden compares got against the committed golden file (or
// rewrites it under -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding differs from golden file (%d vs %d bytes); if the format change is intentional, bump WireVersion and regenerate with -update", name, len(got), len(want))
	}
}

// TestWireGoldenKeyMaterial pins the key-material frame format and the
// full round trip: decoded material must carry identical polynomials,
// the switching keys back in the Montgomery form they left in.
func TestWireGoldenKeyMaterial(t *testing.T) {
	b := tinyBackend(t)
	mat := b.Material()

	var buf bytes.Buffer
	if err := EncodeKeyMaterial(&buf, mat); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "keys.wire", buf.Bytes())

	got, err := DecodeKeyMaterial(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Params != mat.Params {
		t.Errorf("params: got %+v, want %+v", got.Params, mat.Params)
	}
	if !reflect.DeepEqual(got.Public, mat.Public) {
		t.Error("public key lost in round trip")
	}
	if !reflect.DeepEqual(got.Secret, mat.Secret) {
		t.Error("secret key lost in round trip")
	}
	if got.Keys == nil || got.Keys.Relin == nil {
		t.Fatal("relin key lost in round trip")
	}
	if !reflect.DeepEqual(got.Keys.Relin.B, mat.Keys.Relin.B) || !reflect.DeepEqual(got.Keys.Relin.A, mat.Keys.Relin.A) {
		t.Error("relin key polys lost in round trip")
	}
	if len(got.Keys.Galois) != len(mat.Keys.Galois) {
		t.Fatalf("Galois key count %d, want %d", len(got.Keys.Galois), len(mat.Keys.Galois))
	}
	for elt, k := range mat.Keys.Galois {
		gk, ok := got.Keys.Galois[elt]
		if !ok {
			t.Errorf("Galois elt %d lost", elt)
			continue
		}
		if !reflect.DeepEqual(gk.B, k.B) || !reflect.DeepEqual(gk.A, k.A) {
			t.Errorf("Galois key %d differs after round trip", elt)
		}
	}

	// Public scope: no secret key on the wire, decode still works, and
	// the fingerprint matches the full material's.
	var pub bytes.Buffer
	if err := EncodeKeyMaterial(&pub, b.PublicMaterial()); err != nil {
		t.Fatal(err)
	}
	gotPub, err := DecodeKeyMaterial(bytes.NewReader(pub.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotPub.Secret != nil {
		t.Error("public material leaked a secret key")
	}
	fpFull, err := KeyFingerprint(mat)
	if err != nil {
		t.Fatal(err)
	}
	fpPub, err := KeyFingerprint(gotPub)
	if err != nil {
		t.Fatal(err)
	}
	if fpFull != fpPub || len(fpFull) != 64 {
		t.Errorf("fingerprint mismatch: full %s, public %s", fpFull, fpPub)
	}

	// The decoded material must be usable: encrypt with a from-material
	// backend, decrypt with the original.
	fromMat, err := hebgv.NewFromMaterial(hebgv.Config{Seed: 7}, got)
	if err != nil {
		t.Fatal(err)
	}
	vals := []uint64{1, 2, 3, 4, 5, 6, 7, 0}
	ct, err := fromMat.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fromMat.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if dec[i] != v {
			t.Fatalf("from-material decrypt slot %d = %d, want %d", i, dec[i], v)
		}
	}
}

// TestWireGoldenCiphertexts pins the ciphertext-batch frame format and
// cross-backend transport.
func TestWireGoldenCiphertexts(t *testing.T) {
	b := tinyBackend(t)
	vals := []uint64{5, 0, 1, 3, 2, 7, 6, 4}
	ct, err := b.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	raw, depth, err := b.ExportCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeCiphertexts(&buf, []WireCiphertext{{Ct: raw, Depth: depth}}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cts.wire", buf.Bytes())

	got, err := DecodeCiphertexts(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Depth != depth {
		t.Fatalf("decoded %d cts (depth %d), want 1 (depth %d)", len(got), got[0].Depth, depth)
	}
	// Transport into a second backend built from the same wire
	// material: the ciphertext must decrypt there.
	var keyBuf bytes.Buffer
	if err := EncodeKeyMaterial(&keyBuf, b.Material()); err != nil {
		t.Fatal(err)
	}
	mat, err := DecodeKeyMaterial(bytes.NewReader(keyBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	other, err := hebgv.NewFromMaterial(hebgv.Config{}, mat)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := other.ImportCiphertext(got[0].Ct, got[0].Depth)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := other.Decrypt(imported)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if dec[i] != v {
			t.Fatalf("transported ciphertext slot %d = %d, want %d", i, dec[i], v)
		}
	}
}

// TestDecodeOntoPoolRows: with a ring, a ciphertext frame decodes onto
// rows of that ring's pool, which a release after use takes back. A frame
// refused — at its count, at a shape the ring cannot hold, at a
// truncated row, at a residue not reduced by its prime or at trailing
// bytes — keeps none of them: the rows the pool hands out next are the
// ones it held before the decode.
func TestDecodeOntoPoolRows(t *testing.T) {
	b := tinyBackend(t)
	rc := b.Parameters().RingCtx
	var wcs []WireCiphertext
	for _, v := range []uint64{3, 5} {
		ct, err := b.Encrypt([]uint64{v, 1})
		if err != nil {
			t.Fatal(err)
		}
		raw, depth, err := b.ExportCiphertext(ct)
		if err != nil {
			t.Fatal(err)
		}
		wcs = append(wcs, WireCiphertext{Ct: raw, Depth: depth})
	}
	frame := ciphertextFrame(wcs)
	payload := frame[frameHeader:]
	anyCount := func(int) error { return nil }

	got, err := decodeCiphertexts(bytes.NewReader(frame), rc, anyCount)
	if err != nil {
		t.Fatal(err)
	}
	for i, wc := range got {
		if !reflect.DeepEqual(wc, wcs[i]) {
			t.Fatalf("ciphertext %d decoded onto pool rows differs from the one encoded", i)
		}
	}
	last := got[1].Ct.C[1].Coeffs[len(got[1].Ct.C[1].Coeffs)-1]
	for _, wc := range got {
		rc.PutPolys(wc.Ct.C)
	}
	if p := rc.GetPoly(0); &p.Coeffs[0][0] != &last[0] {
		t.Error("the decoded rows did not go back to the pool")
	} else {
		rc.PutPoly(p)
	}

	reframe := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, KindCiphertexts, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	foreign := make([]WireCiphertext, len(wcs))
	for i, wc := range wcs {
		ct := &bgv.Ciphertext{}
		for _, p := range wc.Ct.C {
			half := &ring.Poly{IsNTT: true}
			for _, row := range p.Coeffs {
				half.Coeffs = append(half.Coeffs, row[:rc.N/2])
			}
			ct.C = append(ct.C, half)
		}
		foreign[i] = WireCiphertext{Ct: ct, Depth: wc.Depth}
	}
	level := wcs[0].Ct.Level()
	for _, c := range []struct {
		what  string
		frame []byte
		admit func(int) error
	}{
		{"a refused count", frame, func(int) error { return errors.New("no") }},
		{"rows of half the ring's degree", ciphertextFrame(foreign), anyCount},
		{"a truncated last row", reframe(payload[:len(payload)-8]), anyCount},
		{"an unreduced residue", reframe(append(bytes.Clone(payload[:len(payload)-8]), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)), anyCount},
		{"trailing bytes", reframe(append(bytes.Clone(payload), 0, 0, 0, 0, 0, 0, 0, 0)), anyCount},
	} {
		held := map[*uint64]bool{}
		var draw []*ring.Poly
		for range 4 {
			p := rc.GetPoly(level)
			for _, row := range p.Coeffs {
				held[&row[0]] = true
			}
			draw = append(draw, p)
		}
		rc.PutPolys(draw)
		_, err := decodeCiphertexts(bytes.NewReader(c.frame), rc, c.admit)
		if err == nil {
			t.Fatalf("%s: decoded", c.what)
		}
		var tfe *TruncatedFrameError
		if c.what == "a truncated last row" && !errors.As(err, &tfe) {
			t.Errorf("%s: %v, want a *TruncatedFrameError", c.what, err)
		}
		if c.what == "an unreduced residue" && !strings.Contains(err.Error(), "not reduced") {
			t.Errorf("%s: %v, want the residue refused", c.what, err)
		}
		draw = draw[:0]
		for range 4 {
			p := rc.GetPoly(level)
			for _, row := range p.Coeffs {
				if !held[&row[0]] {
					t.Fatalf("%s: the decode kept rows it drew from the pool", c.what)
				}
			}
			draw = append(draw, p)
		}
		rc.PutPolys(draw)
	}
}

// TestWireGoldenMeta pins the Meta frame (gob payload) round trip.
func TestWireGoldenMeta(t *testing.T) {
	c, err := core.Compile(model.Figure1(), core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeMeta(&buf, &c.Meta); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "meta.wire", buf.Bytes())

	got, err := DecodeMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &c.Meta) {
		t.Errorf("meta round trip:\n got %+v\nwant %+v", got, &c.Meta)
	}
}

// TestDecodeMetaRefusesBrokenShape: a meta frame whose Meta breaks an
// invariant the compiler guarantees — no level plan, or a slot count
// that is not a power of two — is refused by DecodeMeta with the
// *core.UnsupportedModelError of Meta.Validate, the error ReadArtifact
// and ReadManifest give, instead of reaching the gateway's encoder.
func TestDecodeMetaRefusesBrokenShape(t *testing.T) {
	c, err := core.Compile(model.Figure1(), core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*core.Meta){
		"no level plan":            func(m *core.Meta) { m.LevelPlan = nil },
		"slots not a power of two": func(m *core.Meta) { m.Slots = 1000 },
	} {
		m := c.Meta
		corrupt(&m)
		var buf bytes.Buffer
		if err := EncodeMeta(&buf, &m); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeMeta(&buf)
		var unsupported *core.UnsupportedModelError
		if !errors.As(err, &unsupported) {
			t.Errorf("%s: DecodeMeta: %v, want *core.UnsupportedModelError", name, err)
		}
	}
}

// goldenFrame reads a committed golden frame.
func goldenFrame(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// keyPayload returns the gunzipped payload of a key-material frame.
func keyPayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(frame[frameHeader:]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// keyFrame gzips a key-material payload into a frame.
func keyFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeFrame(&out, KindKeyMaterial, zbuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestWireVersionError pins the typed future-version error: a frame
// stamped with a newer wire version must fail with *WireVersionError on
// every decoder, not decode into garbage.
func TestWireVersionError(t *testing.T) {
	future := goldenFrame(t, "meta.wire")
	binary.LittleEndian.PutUint16(future[4:6], WireVersion+1)

	decoders := map[string]func([]byte) error{
		"keys": func(b []byte) error { _, err := DecodeKeyMaterial(bytes.NewReader(b)); return err },
		"cts":  func(b []byte) error { _, err := DecodeCiphertexts(bytes.NewReader(b)); return err },
		"meta": func(b []byte) error { _, err := DecodeMeta(bytes.NewReader(b)); return err },
	}
	for name, dec := range decoders {
		err := dec(future)
		var ve *WireVersionError
		if !errors.As(err, &ve) {
			t.Errorf("%s: future version error = %v, want *WireVersionError", name, err)
			continue
		}
		if ve.Got != WireVersion+1 || ve.Supported != WireVersion {
			t.Errorf("%s: version error %+v", name, ve)
		}
	}
}

// TestWireVersion2Frames: version 3 changed only the ciphertext frame,
// which lost its noise estimate, so a version-2 ciphertext frame is refused
// with a *WireVersionError naming the first version of the current layout,
// while version-2 key and meta frames, whose layout is unchanged, still
// decode.
func TestWireVersion2Frames(t *testing.T) {
	v2 := func(name string) []byte {
		raw := goldenFrame(t, name)
		binary.LittleEndian.PutUint16(raw[4:6], 2)
		return raw
	}
	_, err := DecodeCiphertexts(bytes.NewReader(v2("cts.wire")))
	var ve *WireVersionError
	if !errors.As(err, &ve) || ve.Got != 2 || ve.Min != 3 {
		t.Fatalf("version-2 ciphertext frame: %v, want a *WireVersionError refusing version 2 below 3", err)
	}
	if _, err := DecodeKeyMaterial(bytes.NewReader(v2("keys.wire"))); err != nil {
		t.Errorf("version-2 key frame: %v", err)
	}
	if _, err := DecodeMeta(bytes.NewReader(v2("meta.wire"))); err != nil {
		t.Errorf("version-2 meta frame: %v", err)
	}
}

// TestWireFrameErrors pins the non-version failure modes: bad magic,
// wrong kind, truncation, and trailing garbage.
func TestWireFrameErrors(t *testing.T) {
	frame := goldenFrame(t, "meta.wire")

	bad := bytes.Clone(frame)
	copy(bad[:4], "NOPE")
	if _, err := DecodeMeta(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeCiphertexts(bytes.NewReader(frame)); err == nil {
		t.Error("meta frame accepted as ciphertexts")
	}
	if _, err := DecodeMeta(bytes.NewReader(frame[:len(frame)-2])); err == nil {
		t.Error("truncated frame accepted")
	}
	long := bytes.Clone(frame)
	binary.LittleEndian.PutUint32(long[8:12], uint32(len(frame))) // claims more payload than present
	if _, err := DecodeMeta(bytes.NewReader(long)); err == nil {
		t.Error("overlong length prefix accepted")
	}
	// A ciphertext frame that must hold one ciphertext is refused at its
	// count: a 16-byte frame announcing 2^20 of them gets the count
	// error, not a *TruncatedFrameError after the slice is allocated.
	var many bytes.Buffer
	if err := writeFrame(&many, KindCiphertexts, binary.LittleEndian.AppendUint32(nil, 1<<20)); err != nil {
		t.Fatal(err)
	}
	var tfe *TruncatedFrameError
	if _, err := decodeOneCiphertext(bytes.NewReader(many.Bytes())); many.Len() != 16 || errors.As(err, &tfe) ||
		err == nil || !strings.Contains(err.Error(), "announces 1048576 ciphertexts, want 1") {
		t.Errorf("%d-byte frame announcing 2^20 ciphertexts: %v, want the count error", many.Len(), err)
	}
	if _, err := DecodeCiphertexts(bytes.NewReader(many.Bytes())); !errors.As(err, &tfe) {
		t.Errorf("the same frame as a batch: %v, want *TruncatedFrameError", err)
	}
}

// TestReadFrameOneAllocation: a frame's payload is read into one buffer
// sized from its length prefix — reading a 3 MiB query frame allocates
// the frame and little more, not a buffer doubled its way up from
// nothing (about twice the frame). A ciphertext frame is read into a
// pooled buffer, which the decode gives back once it has copied every
// polynomial out: a warm decode of a query frame onto pool rows
// allocates no payload-sized buffer at all.
func TestReadFrameOneAllocation(t *testing.T) {
	const size = 3 << 20
	var frame bytes.Buffer
	if err := writeFrame(&frame, KindCiphertexts, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	const reads = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reads {
		if payload, err := readFrame(bytes.NewReader(frame.Bytes()), KindCiphertexts); err != nil || len(payload) != size {
			t.Fatalf("readFrame: %d bytes, %v", len(payload), err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > size+64<<10 {
		t.Errorf("reading a %d-byte frame allocated %d bytes, want at most %d", size, per, size+64<<10)
	}

	b, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(5), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rc := b.Parameters().RingCtx
	var wcs []WireCiphertext
	for range 16 {
		ct, err := b.Encrypt(make([]uint64, b.Slots()))
		if err != nil {
			t.Fatal(err)
		}
		raw, depth, err := b.ExportCiphertext(ct)
		if err != nil {
			t.Fatal(err)
		}
		wcs = append(wcs, WireCiphertext{Ct: raw, Depth: depth})
	}
	query := ciphertextFrame(wcs)
	decode := func() {
		got, err := decodeCiphertexts(bytes.NewReader(query), rc, func(int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		for _, wc := range got {
			rc.PutPolys(wc.Ct.C)
		}
	}
	if raceEnabled {
		t.Log("warm decode not measured: sync.Pool drops buffers at random under the race detector")
		return
	}
	// No collection may empty the pool between the warm decode and the
	// measured ones, and the goroutine may not move to another P between
	// a Put and the next Get: a P's own pool item is not stolen by others.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	decode()
	runtime.ReadMemStats(&before)
	for range reads {
		decode()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > 64<<10 {
		t.Errorf("a warm decode of a %d-byte query frame allocated %d bytes, want at most %d", len(query), per, 64<<10)
	}
}

// TestWireSizeLimits pins the typed size and truncation errors, the
// frame budget, and the decompressed-size bound on key material.
func TestWireSizeLimits(t *testing.T) {
	defer maxFrameBytes.Store(defaultMaxFrameBytes)
	frame := goldenFrame(t, "meta.wire")

	// Declared payload over the limit fails typed, before any allocation
	// proportional to the claim.
	maxFrameBytes.Store(8)
	var fse *FrameSizeError
	if _, err := DecodeMeta(bytes.NewReader(frame)); !errors.As(err, &fse) {
		t.Errorf("over-limit frame error = %v, want *FrameSizeError", err)
	} else if fse.Limit != 8 {
		t.Errorf("FrameSizeError limit = %d, want 8", fse.Limit)
	}
	maxFrameBytes.Store(defaultMaxFrameBytes)

	// A stream shorter than its header's promise fails typed too.
	var tfe *TruncatedFrameError
	if _, err := DecodeMeta(bytes.NewReader(frame[:len(frame)-2])); !errors.As(err, &tfe) {
		t.Errorf("truncated stream error = %v, want *TruncatedFrameError", err)
	} else if tfe.Got >= tfe.Want {
		t.Errorf("TruncatedFrameError got %d >= want %d", tfe.Got, tfe.Want)
	}

	// An implausible level count fails at the wire layer, before the
	// decoder pays prime generation proportional to the lie. Levels is
	// the u16 after LogN (1 byte), T (8) and PrimeBits (1).
	deep := keyPayload(t, goldenFrame(t, "keys.wire"))
	binary.LittleEndian.PutUint16(deep[10:12], maxWireLevels+1)
	if _, err := DecodeKeyMaterial(bytes.NewReader(keyFrame(t, deep))); err == nil || !strings.Contains(err.Error(), "implausible level count") {
		t.Errorf("key frame of %d levels: %v, want the wire's level cap", maxWireLevels+1, err)
	}

	// Decompression bomb: a small gzipped key-material frame expanding
	// past the budget must fail with *FrameSizeError, not balloon.
	bomb := keyFrame(t, make([]byte, 1<<16))
	maxFrameBytes.Store(1 << 12)
	if _, err := DecodeKeyMaterial(bytes.NewReader(bomb)); !errors.As(err, &fse) {
		t.Errorf("decompression bomb error = %v, want *FrameSizeError", err)
	}
}

// TestWireKeyShapeError: a key frame whose switching-key digit or limb
// counts disagree with the shape its own Params imply fails the decode
// with *KeyShapeError, whichever count lies.
func TestWireKeyShapeError(t *testing.T) {
	// The evaluation keys without the secret key: the relin key's
	// header follows the public key.
	mat := tinyBackend(t).Material()
	mat.Secret = nil
	var buf bytes.Buffer
	if err := EncodeKeyMaterial(&buf, mat); err != nil {
		t.Fatal(err)
	}
	payload := keyPayload(t, buf.Bytes())
	// Params (13 bytes), flags, then the two public-key polys (7-byte
	// header + limbs·N residues each) precede the relin key's header.
	p := tinyParams()
	polyBytes := 7 + p.Levels*(1<<p.LogN)*8
	relin := 13 + 1 + 2*polyBytes
	reframe := func(mutate func(raw []byte)) []byte {
		raw := bytes.Clone(payload)
		mutate(raw)
		return keyFrame(t, raw)
	}
	if _, err := DecodeKeyMaterial(bytes.NewReader(reframe(func([]byte) {}))); err != nil {
		t.Fatalf("untampered reframe does not decode: %v", err)
	}
	for name, tc := range map[string]struct {
		off int
		val uint16
	}{
		"digit count":           {relin, 4},
		"chain limb count":      {relin + 2, uint16(p.Levels + 1)},
		"special limb count":    {relin + 4, 1},
		"polynomial limb count": {relin + 6 + 1, uint16(p.Levels)},
	} {
		frame := reframe(func(raw []byte) { binary.LittleEndian.PutUint16(raw[tc.off:], tc.val) })
		var kse *KeyShapeError
		if _, err := DecodeKeyMaterial(bytes.NewReader(frame)); !errors.As(err, &kse) {
			t.Errorf("%s: error = %v, want *KeyShapeError", name, err)
		} else if kse.What != name {
			t.Errorf("%s: KeyShapeError names %q", name, kse.What)
		}
	}
}
