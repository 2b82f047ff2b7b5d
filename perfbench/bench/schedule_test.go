package bench

import (
	"testing"
	"time"
)

func TestScheduleArithmetic(t *testing.T) {
	start := time.Unix(1000, 0)
	s := Schedule{Start: start, Rate: 800}
	if got := s.Due(0); !got.Equal(start) {
		t.Errorf("Due(0) = %v, want the start", got)
	}
	if got := s.Due(800).Sub(start); got != time.Second {
		t.Errorf("Due(800) is %v after the start, want 1s", got)
	}
	if got := s.Due(1).Sub(start); got != 1250*time.Microsecond {
		t.Errorf("Due(1) is %v after the start, want 1.25ms", got)
	}
	cases := []struct {
		rate float64
		d    time.Duration
		want int
	}{
		{400, 2500 * time.Millisecond, 1000},
		{3, time.Second, 3},             // due at 0, 1/3 and 2/3 s
		{10, 300 * time.Millisecond, 3}, // 10·0.3 rounds up past 3 in floating point
		{1000, 0, 0},
	}
	for _, c := range cases {
		s := Schedule{Start: start, Rate: c.rate}
		n := s.Count(c.d)
		if n != c.want {
			t.Errorf("Count(rate %v, %v) = %d, want %d", c.rate, c.d, n, c.want)
		}
		if n > 0 && !s.Due(n-1).Before(start.Add(c.d)) {
			t.Errorf("rate %v: request %d is due at the end of the window", c.rate, n-1)
		}
	}
}

func TestRunOpenLoopTimesFromDue(t *testing.T) {
	// One sender slower than the arrival rate: request i falls due at
	// 10i ms but cannot start before the i earlier ones have taken 30 ms
	// each, so its latency from due time is at least 20i + 30 ms.
	const n = 8
	sched := Schedule{Start: time.Now().Add(5 * time.Millisecond), Rate: 100}
	res := RunOpenLoop(sched, n, 1, func(int) bool {
		time.Sleep(30 * time.Millisecond)
		return true
	})
	for i, lat := range res.LatencyMs {
		if floor := float64(20*i + 30); lat < floor {
			t.Errorf("request %d: latency %.1fms, want at least %.0fms", i, lat, floor)
		}
	}
	if len(res.LagMs) != n {
		t.Fatalf("got %d lag samples, want %d", len(res.LagMs), n)
	}
}
