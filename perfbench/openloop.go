package main

import "time"

// schedule is an open-loop send schedule: request i is due at
// start + i*interval whether or not request i-1 has completed.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// openLoop accounts an open-loop generator. Latency is measured from when
// a request was due, so a stall is charged to every request queued behind
// it; lateness is how long after its due time a request was actually sent.
type openLoop struct {
	latency dist // due -> response, ms
	late    dist // due -> send, ms
}

func (o *openLoop) record(due, sent, done time.Time) {
	o.latency.addDur(done.Sub(due))
	o.late.addDur(sent.Sub(due))
}

// runOpenLoop sends request i at its due time until the next due time
// reaches until. A single sender cannot overlap requests, so a request
// that finishes late sends the next one immediately and the backlog shows
// in due-time latency. now and sleepUntil are the clock; send reports
// whether request i was acknowledged. Only acknowledged requests are
// recorded as latencies.
func runOpenLoop(s schedule, until time.Time, now func() time.Time, sleepUntil func(time.Time),
	send func(i int) bool, acc *openLoop) int {
	i := 0
	for ; ; i++ {
		due := s.due(i)
		if !due.Before(until) {
			return i
		}
		sleepUntil(due)
		sent := now()
		if send(i) {
			acc.record(due, sent, now())
		}
	}
}

// wallSleepUntil is the real clock's sleepUntil.
func wallSleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
