package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the loop sleeps or a request is served.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	start := time.Unix(0, 0)
	clk := &fakeClock{now: start}
	ms := time.Millisecond
	// Request 0 stalls for 25ms at a 10ms interval; the rest take 1ms.
	service := []time.Duration{25 * ms, ms, ms, ms}
	var acc openLoop
	n := runOpenLoop(schedule{start: start, interval: 10 * ms}, start.Add(40*ms), clk.Now, clk.SleepUntil,
		func(i int) bool { clk.now = clk.now.Add(service[i]); return true }, &acc)
	if n != 4 {
		t.Fatalf("sent %d requests, want 4", n)
	}
	// Due at 0, 10, 20, 30; sent at 0, 25, 26, 30; done at 25, 26, 27, 31.
	wantLat := []float64{25, 16, 7, 1}
	wantLate := []float64{0, 15, 6, 0}
	for i := range wantLat {
		if acc.latency.xs[i] != wantLat[i] || acc.late.xs[i] != wantLate[i] {
			t.Errorf("request %d: latency %g late %g, want %g and %g",
				i, acc.latency.xs[i], acc.late.xs[i], wantLat[i], wantLate[i])
		}
	}
}

func TestOpenLoopKeepsScheduleAfterFailures(t *testing.T) {
	start := time.Unix(0, 0)
	clk := &fakeClock{now: start}
	var acc openLoop
	n := runOpenLoop(schedule{start: start, interval: time.Second}, start.Add(5*time.Second), clk.Now, clk.SleepUntil,
		func(i int) bool { return i%2 == 0 }, &acc)
	if n != 5 {
		t.Fatalf("sent %d requests, want 5", n)
	}
	if acc.latency.n() != 3 {
		t.Fatalf("recorded %d latencies, want 3 (failed sends are not latencies)", acc.latency.n())
	}
}
