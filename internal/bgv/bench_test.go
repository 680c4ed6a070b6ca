package bgv

import (
	"runtime"
	"sync"
	"testing"
)

func benchKit(b *testing.B, levels int) (*Parameters, *Encoder, *Encryptor, *Evaluator, *SecretKey) {
	b.Helper()
	params, err := NewParameters(TestParams(levels))
	if err != nil {
		b.Fatal(err)
	}
	kg := NewSeededKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	keys, err := kg.GenEvaluationKeys(sk, []int{1})
	if err != nil {
		b.Fatal(err)
	}
	enc, err := NewEncoder(params)
	if err != nil {
		b.Fatal(err)
	}
	return params, enc, NewSeededEncryptor(params, pk, 2), NewEvaluator(params, keys), sk
}

// BenchmarkHomomorphicOps measures the primitive BGV operations the
// COPSE complexity model counts (paper §6).
func BenchmarkHomomorphicOps(b *testing.B) {
	params, enc, encryptor, eval, sk := benchKit(b, 6)
	vals := make([]uint64, params.Slots())
	for i := range vals {
		vals[i] = uint64(i % 2)
	}
	pt, err := enc.Encode(vals)
	if err != nil {
		b.Fatal(err)
	}
	ct := encryptor.Encrypt(pt)

	b.Run("encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			encryptor.Encrypt(pt)
		}
	})
	b.Run("encrypt-secret", func(b *testing.B) {
		secret := NewSeededSecretKeyEncryptor(params, sk, 3)
		for i := 0; i < b.N; i++ {
			secret.Encrypt(pt)
		}
	})
	// A query's eight bit planes under the public key, one reservation
	// spread over GOMAXPROCS goroutines: one iteration is the set.
	b.Run("encrypt-set", func(b *testing.B) {
		const planes = 8
		workers := min(runtime.GOMAXPROCS(0), planes)
		for i := 0; i < b.N; i++ {
			res := encryptor.Reserve(planes)
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := w; j < planes; j += workers {
						res.EncryptAtLevel(j, pt, params.MaxLevel())
					}
				}()
			}
			wg.Wait()
		}
	})
	b.Run("add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.Add(ct, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mul-plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.MulPlain(ct, pt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mul-relin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.Mul(ct, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rotate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.Rotate(ct, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
