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
	"testing"

	"copse/internal/bgv"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/model"
)

// -update regenerates the golden wire files from the current encoder.
var update = flag.Bool("update", false, "rewrite golden wire-format files")

// tinyParams is a deliberately minimal parameter set (N=16) so the
// committed golden key material stays a few kilobytes.
func tinyParams() bgv.Params {
	return bgv.Params{LogN: 4, T: 65537, PrimeBits: 40, Levels: 3, DigitBits: 30}
}

// tinyBackend builds a deterministic backend on the tiny parameters
// holding the key set the golden files were cut from: the power-of-two
// ladder and {3, −2} at the chain top, except step 3 at level 1, drawn in
// that order from seed 42.
func tinyBackend(t *testing.T) *hebgv.Backend {
	t.Helper()
	b, err := hebgv.New(hebgv.Config{Params: tinyParams(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var rots []he.Rotation
	for _, s := range append(bgv.PowerOfTwoSteps(b.Slots()), 3, -2) {
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

// TestWireGoldenParams pins the parameter frame format.
func TestWireGoldenParams(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeParams(&buf, tinyParams()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "params.wire", buf.Bytes())

	got, err := DecodeParams(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != tinyParams() {
		t.Errorf("params round trip: got %+v, want %+v", got, tinyParams())
	}

	// Golden decode: the committed bytes must still decode and
	// re-encode byte-identically.
	golden, err := os.ReadFile(goldenPath("params.wire"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeParams(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("decoding golden params: %v", err)
	}
	var re bytes.Buffer
	if err := EncodeParams(&re, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), golden) {
		t.Error("golden params do not re-encode byte-identically")
	}
}

// TestWireGoldenKeyMaterial pins the key-material frame format and the
// full round trip: decoded material must carry identical polynomials
// and correctly rebuilt Shoup tables.
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
	// Shoup companions are rebuilt, not shipped — they must still match.
	if !reflect.DeepEqual(got.Keys.Relin.BS, mat.Keys.Relin.BS) || !reflect.DeepEqual(got.Keys.Relin.AS, mat.Keys.Relin.AS) {
		t.Error("rebuilt Shoup tables differ from originals")
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
		if !reflect.DeepEqual(gk.B, k.B) || !reflect.DeepEqual(gk.BS, k.BS) {
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

// TestWireVersionError pins the typed future-version error: a frame
// stamped with a newer wire version must fail with *WireVersionError on
// every decoder, not decode into garbage.
func TestWireVersionError(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeParams(&buf, tinyParams()); err != nil {
		t.Fatal(err)
	}
	future := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint16(future[4:6], WireVersion+1)

	decoders := map[string]func([]byte) error{
		"params": func(b []byte) error { _, err := DecodeParams(bytes.NewReader(b)); return err },
		"keys":   func(b []byte) error { _, err := DecodeKeyMaterial(bytes.NewReader(b)); return err },
		"cts":    func(b []byte) error { _, err := DecodeCiphertexts(bytes.NewReader(b)); return err },
		"meta":   func(b []byte) error { _, err := DecodeMeta(bytes.NewReader(b)); return err },
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
// while version-2 params, key and meta frames, whose layout is unchanged,
// still decode.
func TestWireVersion2Frames(t *testing.T) {
	v2 := func(name string) []byte {
		raw, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(raw[4:6], 2)
		return raw
	}
	_, err := DecodeCiphertexts(bytes.NewReader(v2("cts.wire")))
	var ve *WireVersionError
	if !errors.As(err, &ve) || ve.Got != 2 || ve.Min != 3 {
		t.Fatalf("version-2 ciphertext frame: %v, want a *WireVersionError refusing version 2 below 3", err)
	}
	if _, err := DecodeParams(bytes.NewReader(v2("params.wire"))); err != nil {
		t.Errorf("version-2 params frame: %v", err)
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
	var buf bytes.Buffer
	if err := EncodeParams(&buf, tinyParams()); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	bad := bytes.Clone(frame)
	copy(bad[:4], "NOPE")
	if _, err := DecodeParams(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeCiphertexts(bytes.NewReader(frame)); err == nil {
		t.Error("params frame accepted as ciphertexts")
	}
	if _, err := DecodeParams(bytes.NewReader(frame[:len(frame)-2])); err == nil {
		t.Error("truncated frame accepted")
	}
	long := bytes.Clone(frame)
	binary.LittleEndian.PutUint32(long[8:12], uint32(len(frame))) // claims more payload than present
	if _, err := DecodeParams(bytes.NewReader(long)); err == nil {
		t.Error("overlong length prefix accepted")
	}
}

// TestWireSizeLimits pins the typed size and truncation errors, the
// configurable frame budget, and the decompressed-size bound on key
// material.
func TestWireSizeLimits(t *testing.T) {
	defer SetMaxFrameBytes(0)
	var buf bytes.Buffer
	if err := EncodeParams(&buf, tinyParams()); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	// Declared payload over the configured limit fails typed, before
	// any allocation proportional to the claim.
	SetMaxFrameBytes(8)
	var fse *FrameSizeError
	if _, err := DecodeParams(bytes.NewReader(frame)); !errors.As(err, &fse) {
		t.Errorf("over-limit frame error = %v, want *FrameSizeError", err)
	} else if fse.Limit != 8 {
		t.Errorf("FrameSizeError limit = %d, want 8", fse.Limit)
	}
	SetMaxFrameBytes(0)
	if MaxFrameBytes() != DefaultMaxFrameBytes {
		t.Errorf("SetMaxFrameBytes(0) left limit %d, want default %d", MaxFrameBytes(), DefaultMaxFrameBytes)
	}

	// A stream shorter than its header's promise fails typed too.
	var tfe *TruncatedFrameError
	if _, err := DecodeParams(bytes.NewReader(frame[:len(frame)-2])); !errors.As(err, &tfe) {
		t.Errorf("truncated stream error = %v, want *TruncatedFrameError", err)
	} else if tfe.Got >= tfe.Want {
		t.Errorf("TruncatedFrameError got %d >= want %d", tfe.Got, tfe.Want)
	}

	// An implausible level count fails at the wire layer, before the
	// decoder pays prime generation proportional to the lie.
	deep := tinyParams()
	deep.Levels = maxWireLevels + 1
	var db bytes.Buffer
	if err := EncodeParams(&db, deep); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeParams(bytes.NewReader(db.Bytes())); err == nil {
		t.Error("implausible level count accepted")
	}

	// Decompression bomb: a small gzipped key-material frame expanding
	// past the budget must fail with *FrameSizeError, not balloon.
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	var bomb bytes.Buffer
	if err := writeFrame(&bomb, KindKeyMaterial, zbuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	SetMaxFrameBytes(1 << 12)
	if _, err := DecodeKeyMaterial(bytes.NewReader(bomb.Bytes())); !errors.As(err, &fse) {
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
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()[12:]))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// Params (13 bytes), flags, then the two public-key polys (7-byte
	// header + limbs·N residues each) precede the relin key's header.
	p := tinyParams()
	polyBytes := 7 + p.Levels*(1<<p.LogN)*8
	relin := 13 + 1 + 2*polyBytes
	reframe := func(mutate func(raw []byte)) []byte {
		raw := bytes.Clone(payload)
		mutate(raw)
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		if _, err := zw.Write(raw); err != nil {
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
