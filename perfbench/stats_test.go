package main

import "testing"

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		ceiling float64
		want    float64
	}{
		{1000, 99.9, 99}, // 10 beyond p99; p99.9 leaves 1
		{999, 99.9, 95},  // p99 leaves 9
		{200, 99.9, 95},
		{199, 99.9, 90},
		{100, 99.9, 90},
		{99, 99.9, 75},
		{40, 99.9, 75},
		{39, 99.9, 50},
		{1000, 90, 90}, // the ceiling caps a long run
		{5, 99.9, 50},  // nothing qualifies: lowest step
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.ceiling); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.ceiling, got, c.want)
		}
	}
}

func TestDistTail(t *testing.T) {
	var d dist
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	v, p := d.tail(99.9)
	if p != 90 || v != 90 {
		t.Fatalf("tail = %g at p%g, want 90 at p90", v, p)
	}
	beyond := 0
	for _, x := range d.xs {
		if x > v {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, minBeyond)
	}
	if m := d.median(); m != 50 {
		t.Fatalf("median = %g, want 50", m)
	}
}
