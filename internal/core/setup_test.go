package core

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/matrix"
	"copse/internal/ring"
)

// TestSetupExactOnEveryCore holds set-up to its bits whatever the core
// count: a seeded backend's key generation and Prepare — depth4 as a
// plaintext model, prec16 encrypted under Offload — make the same
// relinearization key, Galois keys and staged operands, to the SHA-256,
// at GOMAXPROCS 1, 2 and 4. Keys are drawn in stream order and built in
// parallel (bgv's inStreamOrder), and staged encryptions are sets whose
// seeds are reserved in order, so the count changes only who computes.
func TestSetupExactOnEveryCore(t *testing.T) {
	for _, tc := range []struct {
		model    string
		encModel bool
	}{{"depth4", false}, {"prec16", true}} {
		t.Run(tc.model, func(t *testing.T) {
			c, err := Compile(microForest(t, tc.model), Options{Slots: 1024})
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for _, procs := range []int{1, 2, 4} {
				got := func() []byte {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					b, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(c.Meta.ChainLevels(tc.encModel)), Seed: 47})
					if err != nil {
						t.Fatal(err)
					}
					m, err := Prepare(b, c, tc.encModel, true, false)
					if err != nil {
						t.Fatal(err)
					}
					return setupDigest(b, m)
				}()
				t.Logf("GOMAXPROCS %d: %x", procs, got)
				if want == nil {
					want = got
				} else if !slices.Equal(got, want) {
					t.Errorf("GOMAXPROCS %d: set-up digest %x, GOMAXPROCS 1 made %x", procs, got, want)
				}
			}
		})
	}
}

// setupDigest is the SHA-256 of the relinearization key, the Galois keys
// in element order and every operand m staged: each plane packing's
// thresholds and program constants, the reshuffle diagonals and both
// level stagings.
func setupDigest(b *hebgv.Backend, m *ModelOperands) []byte {
	h := sha256.New()
	keys := b.Material().Keys
	digestKey(h, keys.Relin)
	for _, g := range slices.Sorted(maps.Keys(keys.Galois)) {
		binary.Write(h, binary.LittleEndian, g)
		digestKey(h, keys.Galois[g])
	}
	var ops []he.Operand
	diags := []*matrix.Diagonals{m.Reshuffle}
	for _, pk := range m.packings {
		ops = append(ops, pk.thresholds...)
		ops = append(ops, pk.program.bound...)
	}
	for _, lv := range []*levelStaging{m.packings[0].levels, m.grouped} {
		if lv != nil {
			diags = append(diags, lv.mats...)
			ops = append(ops, lv.masks...)
		}
	}
	for _, d := range diags {
		ops = append(ops, d.Ops...)
	}
	for _, op := range ops {
		digestValue(h, reflect.ValueOf(op))
	}
	return h.Sum(nil)
}

func digestKey(h hash.Hash, k *bgv.SwitchingKey) {
	for _, p := range slices.Concat(k.B, k.A) {
		digestValue(h, reflect.ValueOf(p))
	}
}

// ringContext is the one pointer the walk does not follow: a ciphertext's
// pool, shared by every operand.
var ringContext = reflect.TypeFor[*ring.Context]()

// digestValue writes every integer, bool and length reachable from v —
// a staged operand of any backend type, unexported fields included —
// skipping the ring context and the sync and atomic fields (a
// plaintext's lift cache, a key's views), which derive from the rest.
func digestValue(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() || v.Type() == ringContext {
			return
		}
		digestValue(h, v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			if pkg := v.Type().Field(i).Type.PkgPath(); pkg != "sync" && pkg != "sync/atomic" {
				digestValue(h, v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		binary.Write(h, binary.LittleEndian, uint64(v.Len()))
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint64 {
			h.Write(unsafe.Slice((*byte)(v.UnsafePointer()), 8*v.Len()))
			return
		}
		for i := range v.Len() {
			digestValue(h, v.Index(i))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		binary.Write(h, binary.LittleEndian, v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		binary.Write(h, binary.LittleEndian, v.Int())
	case reflect.Bool:
		binary.Write(h, binary.LittleEndian, v.Bool())
	}
}
