package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistBuckets(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 - 1} {
		b := histBucket(v)
		if b < prev || b >= histBuckets {
			t.Fatalf("value %d: bucket %d after %d (of %d)", v, b, prev, histBuckets)
		}
		prev = b
		if lo, w := histRange(b); v < lo || v >= lo+w {
			t.Fatalf("value %d outside its bucket [%d, %d)", v, lo, lo+w)
		}
	}
	if histBucket(-5) != 0 || histBucket(math.MaxInt64) != histBuckets-1 {
		t.Fatal("out-of-range values are not clamped")
	}
}

func TestHistQuantileNearExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var vals []int64
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 50000)
		h.add(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{0.5, 0.99} {
		exact := float64(vals[int(math.Ceil(p*float64(len(vals))))-1])
		if got := h.quantile(p); math.Abs(got-exact) > exact/64 {
			t.Errorf("p%.0f = %.1f, exact %.1f", p*100, got, exact)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Fatal("an empty histogram has a quantile")
	}
}
