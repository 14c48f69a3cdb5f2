package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	// root [0,100) with children [10,40) and [30,60) overlapping, and a
	// grandchild [15,20) inside the first child.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 1, Start: 15, End: 20},
	}
	want := []time.Duration{50, 25, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got, want[i])
		}
	}
	lt := summarize(spans)
	if lt.self["a"] != 25 || lt.count["a"] != 1 {
		t.Errorf("summary of a: self %v count %d", lt.self["a"], lt.count["a"])
	}
}
