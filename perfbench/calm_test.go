package main

import (
	"reflect"
	"testing"
)

func TestCalmMask(t *testing.T) {
	for _, c := range []struct {
		name  string
		steal []float64
		known bool
		want  []bool
	}{
		{"within the margin of the calmest", []float64{0.10, 0.00, 0.02, 0.03, 0.25}, true,
			[]bool{false, true, true, false, false}},
		{"at least an eighth", []float64{0.30, 0.20, 0.10, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90}, true,
			[]bool{false, true, true, false, false, false, false, false, false}},
		{"ties at the cut all count", []float64{0.2, 0.1, 0.1, 0.1}, true,
			[]bool{false, true, true, true}},
		{"a host that steals nothing", []float64{0, 0, 0}, true,
			[]bool{true, true, true}},
		{"steal unknown", []float64{0, 0.5, 0}, false,
			[]bool{true, true, true}},
		{"no intervals", nil, true, []bool{}},
	} {
		if got := calmMask(c.steal, c.known); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: calmMask(%v) = %v, want %v", c.name, c.steal, got, c.want)
		}
	}
}

func TestStealShare(t *testing.T) {
	if v, ok := stealShare(10, 100, 30, 300); !ok || v != 0.1 {
		t.Errorf("stealShare = %v, %v; want 0.1, true", v, ok)
	}
	if _, ok := stealShare(10, 100, 10, 100); ok {
		t.Error("stealShare over no ticks reported a share")
	}
}
