package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"copse/internal/bgv"
)

// FuzzWireDecode drives the three frame decoders — key material,
// ciphertexts, meta — with arbitrary bytes: the wire layer's contract is
// that hostile input fails with a typed error — never a panic, and never
// an allocation proportional to a lying length prefix (the fuzz body
// lowers maxFrameBytes to 1 MiB so a violation shows up as an OOM-scale
// allocation the engine catches).
//
// The committed seed corpus under testdata/fuzz/FuzzWireDecode holds a
// valid frame of every kind plus truncated, garbled and oversized
// variants, so coverage starts past the header checks even in the
// seed-only CI run. Regenerate it with:
//
//	go run ./internal/cluster/testdata/gencorpus
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CPSW"))
	f.Fuzz(func(t *testing.T, data []byte) {
		maxFrameBytes.Store(1 << 20)
		// A frame carrying valid-but-large parameters (LogN 15, 64
		// levels) makes DecodeKeyMaterial legitimately pay seconds of
		// prime generation; veto those so the engine keeps mutating
		// instead of grinding one input.
		wireParamsHook = func(p bgv.Params) error {
			if p.LogN > 8 || p.Levels > 8 {
				return fmt.Errorf("fuzz: parameters too expensive (LogN %d, Levels %d)", p.LogN, p.Levels)
			}
			return nil
		}
		defer func() {
			maxFrameBytes.Store(defaultMaxFrameBytes)
			wireParamsHook = nil
		}()
		_, _ = DecodeKeyMaterial(bytes.NewReader(data))
		_, _ = DecodeCiphertexts(bytes.NewReader(data))
		_, _ = DecodeMeta(bytes.NewReader(data))
	})
}
