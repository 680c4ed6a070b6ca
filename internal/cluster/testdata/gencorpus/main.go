// Command gencorpus regenerates the FuzzWireDecode seed corpus under
// internal/cluster/testdata/fuzz/FuzzWireDecode: one valid frame of
// every wire kind plus truncated, garbled and oversized variants, so
// fuzzing (and the seed-only CI run) starts with coverage past the
// frame-header checks. Run from the repository root:
//
//	go run ./internal/cluster/testdata/gencorpus
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"copse/internal/bgv"
	"copse/internal/cluster"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/model"
)

func main() {
	dir := filepath.Join("internal", "cluster", "testdata", "fuzz", "FuzzWireDecode")
	if _, err := os.Stat(filepath.Join("internal", "cluster")); err != nil {
		log.Fatalf("run from the repository root: %v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}

	// Same deliberately tiny parameter set as the golden wire tests
	// (N=16) so the corpus stays a few kilobytes per file.
	params := bgv.Params{LogN: 4, T: 65537, PrimeBits: 40, Levels: 3, DigitBits: 30}
	backend, err := hebgv.New(hebgv.Config{Params: params, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	// The key set the corpus was cut from: steps ±1, ±2, ±4 (a
	// power-of-two ladder over the 8 slots), then {3, −2}, all at the
	// chain top, drawn in that order.
	var rots []he.Rotation
	for _, s := range []int{1, -1, 2, -2, 4, -4, 3, -2} {
		rots = append(rots, he.Rotation{Step: s, Level: backend.MaxLevel()})
	}
	must(backend.EnsureRotationKeys(rots))

	seeds := map[string][]byte{}

	// The secret key stays out; the evaluation keys give the frame's
	// switching-key decoder coverage.
	keys := backend.Material()
	keys.Secret = nil
	var kb bytes.Buffer
	must(cluster.EncodeKeyMaterial(&kb, keys))
	seeds["keymaterial"] = kb.Bytes()

	ct, err := backend.Encrypt([]uint64{5, 0, 1, 3, 2, 7, 6, 4})
	if err != nil {
		log.Fatal(err)
	}
	raw, depth, err := backend.ExportCiphertext(ct)
	if err != nil {
		log.Fatal(err)
	}
	var cb bytes.Buffer
	must(cluster.EncodeCiphertexts(&cb, []cluster.WireCiphertext{{Ct: raw, Depth: depth}}))
	seeds["ciphertexts"] = cb.Bytes()

	compiled, err := core.Compile(model.Figure1(), core.Options{Slots: 1024})
	if err != nil {
		log.Fatal(err)
	}
	var mb bytes.Buffer
	must(cluster.EncodeMeta(&mb, &compiled.Meta))
	seeds["meta"] = mb.Bytes()

	// Hostile variants of the meta frame: decoders must fail these
	// with typed errors, never a panic or a large allocation.
	frame := bytes.Clone(seeds["meta"])
	seeds["truncated"] = frame[:len(frame)-2]

	bad := bytes.Clone(frame)
	copy(bad[:4], "NOPE")
	seeds["badmagic"] = bad

	future := bytes.Clone(frame)
	binary.LittleEndian.PutUint16(future[4:6], cluster.WireVersion+1)
	seeds["badversion"] = future

	huge := bytes.Clone(frame)
	binary.LittleEndian.PutUint32(huge[8:12], 1<<30) // lying length prefix
	seeds["hugelen"] = huge

	garbled := bytes.Clone(seeds["ciphertexts"])
	for i := 12; i < len(garbled); i += 97 {
		garbled[i] ^= 0x5a
	}
	seeds["garbled"] = garbled

	for name, data := range seeds {
		path := filepath.Join(dir, name)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
