package hashfn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Fibonacci:          "fibonacci",
		LinearCongruential: "lcg",
		Bitwise:            "bitwise",
		Concatenated:       "concatenated",
		Kind(200):          "unknown",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, s)
		}
	}
}

func TestKindsCoversAllFamilies(t *testing.T) {
	ks := Kinds()
	if len(ks) != 4 {
		t.Fatalf("Kinds() returned %d kinds, want 4", len(ks))
	}
	seen := map[Kind]bool{}
	for _, k := range ks {
		if seen[k] {
			t.Errorf("Kinds() repeats %v", k)
		}
		seen[k] = true
		if k.String() == "unknown" {
			t.Errorf("Kinds() contains unnamed kind %d", k)
		}
	}
}

func TestIndexInRange(t *testing.T) {
	for _, k := range Kinds() {
		for _, m := range []uint64{1, 2, 3, 7, 64, 1024, 1<<20 + 7} {
			for _, x := range []uint64{0, 1, 2, 0xFFFFFFFFFFFFFFFF, 0x123456789ABCDEF0} {
				if got := Index(k, x, m); got >= m {
					t.Errorf("Index(%v, %#x, %d) = %d out of range", k, x, m, got)
				}
			}
		}
	}
}

func TestIndexZeroTable(t *testing.T) {
	for _, k := range Kinds() {
		if got := Index(k, 12345, 0); got != 0 {
			t.Errorf("Index(%v, 12345, 0) = %d, want 0", k, got)
		}
	}
}

func TestIndexInRangeQuick(t *testing.T) {
	f := func(x, m uint64) bool {
		if m == 0 {
			m = 1
		}
		for _, k := range Kinds() {
			if Index(k, x, m) >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPack32RoundTrip(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := Unpack32(Pack32(a, b))
		return x == a && y == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPack32Injective(t *testing.T) {
	seen := map[uint64][2]uint32{}
	vals := []uint32{0, 1, 2, 65535, 65536, 1 << 20, math.MaxUint32}
	for _, a := range vals {
		for _, b := range vals {
			k := Pack32(a, b)
			if prev, ok := seen[k]; ok {
				t.Fatalf("Pack32 collision: (%d,%d) and (%d,%d) -> %#x", a, b, prev[0], prev[1], k)
			}
			seen[k] = [2]uint32{a, b}
		}
	}
}

func TestPack16Literal(t *testing.T) {
	if got := Pack16(3, 5); got != 3<<16|5 {
		t.Errorf("Pack16(3,5) = %#x, want %#x", got, uint64(3<<16|5))
	}
	// Truncation of t2 beyond 16 bits is documented behaviour.
	if Pack16(0, 1<<16) != Pack16(0, 0) {
		t.Error("Pack16 must truncate t2 to 16 bits")
	}
	// Collisions exist for >16-bit ids: that is exactly the weakness the
	// 32-bit packer fixes.
	if Pack16(1, 0) != Pack16(0, 1<<16|0)>>16<<16 {
		t.Log("pack16 collision structure differs (informational)")
	}
}

func TestMixDeterminism(t *testing.T) {
	for _, k := range Kinds() {
		if Mix(k, 42) != Mix(k, 42) {
			t.Errorf("Mix(%v) not deterministic", k)
		}
	}
}

// TestFibonacciSequentialKeysSpread checks the defining property of
// multiplicative hashing: consecutive keys land far apart.
func TestFibonacciSequentialKeysSpread(t *testing.T) {
	const m = 1024
	var hits [m]int
	for x := uint64(0); x < m; x++ {
		hits[Index(Fibonacci, x, m)]++
	}
	max := 0
	for _, h := range hits {
		if h > max {
			max = h
		}
	}
	// Fibonacci hashing of a dense key range is near-perfectly uniform.
	if max > 3 {
		t.Errorf("fibonacci hash of sequential keys has bucket with %d hits, want <= 3", max)
	}
}

// TestConcatenatedClusters documents the failure mode the paper observed:
// modulo mapping of structured keys clusters.
func TestConcatenatedClusters(t *testing.T) {
	const m = 1024
	var hits [m]int
	// Structured keys: all share the same low 16 bits, as edge keys packed
	// with a small destination id do.
	for i := uint64(0); i < m; i++ {
		hits[Index(Concatenated, Pack16(i, 7), m)]++
	}
	nonEmpty := 0
	for _, h := range hits {
		if h > 0 {
			nonEmpty++
		}
	}
	fibNonEmpty := 0
	var fhits [m]int
	for i := uint64(0); i < m; i++ {
		fhits[Index(Fibonacci, Pack16(i, 7), m)]++
	}
	for _, h := range fhits {
		if h > 0 {
			fibNonEmpty++
		}
	}
	if nonEmpty >= fibNonEmpty {
		t.Errorf("expected concatenated hash to use fewer buckets than fibonacci on structured keys: %d vs %d", nonEmpty, fibNonEmpty)
	}
}

func BenchmarkMix(b *testing.B) {
	for _, k := range Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			var acc uint64
			for i := 0; i < b.N; i++ {
				acc += Mix(k, uint64(i))
			}
			sink = acc
		})
	}
}

var sink uint64

func BenchmarkIndex(b *testing.B) {
	for _, k := range Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			var acc uint64
			for i := 0; i < b.N; i++ {
				acc += Index(k, uint64(i)*2654435761, 1<<20)
			}
			sink = acc
		})
	}
}

func TestFibonacciPow2MatchesIndex(t *testing.T) {
	f := func(x uint64, bitsRaw uint8) bool {
		b := uint(bitsRaw%31) + 1
		return FibonacciPow2(x, 64-b) == Index(Fibonacci, x, 1<<b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
