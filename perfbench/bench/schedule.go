package bench

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Schedule is a fixed-rate open-loop arrival schedule: request i falls
// due at Start + i/Rate, whatever happened to the requests before it.
type Schedule struct {
	Start time.Time
	Rate  float64 // requests per second
}

// Due returns when request i falls due.
func (s Schedule) Due(i int) time.Time {
	return s.Start.Add(time.Duration(float64(i) * float64(time.Second) / s.Rate))
}

// Count returns how many requests fall due in [Start, Start+d).
func (s Schedule) Count(d time.Duration) int {
	end := s.Start.Add(d)
	n := int(math.Ceil(s.Rate * d.Seconds()))
	for n > 0 && !s.Due(n-1).Before(end) {
		n--
	}
	return n
}

// OpenLoopResult is what one open-loop phase measured, per request in
// schedule order.
type OpenLoopResult struct {
	// LatencyMs is each request's time from when it fell due to when its
	// response was read; +Inf for a failed or refused request.
	LatencyMs []float64
	// LagMs is how late the dispatcher handed each request out, the
	// generator's own lateness.
	LagMs []float64
}

// RunOpenLoop sends n requests on sched through at most senders
// concurrent calls of send, which reports whether request i succeeded. A
// request that falls due while every sender is busy waits, and the wait
// counts in its latency.
func RunOpenLoop(sched Schedule, n, senders int, send func(i int) bool) OpenLoopResult {
	res := OpenLoopResult{LatencyMs: make([]float64, n), LagMs: make([]float64, n)}
	// Sized to the whole schedule so the dispatcher never blocks on busy
	// senders: requests queue here and their wait is charged as latency.
	ready := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				ok := send(i)
				if !ok {
					res.LatencyMs[i] = math.Inf(1)
					continue
				}
				res.LatencyMs[i] = ms(time.Since(sched.Due(i)))
			}
		}()
	}
	// The dispatcher sleeps in nanosleep on its own thread: time.Sleep
	// wakes through the runtime's poller, which on some kernels rounds up
	// to whole milliseconds, and that lateness would be charged to every
	// request's latency.
	runtime.LockOSThread()
	for i := 0; i < n; i++ {
		due := sched.Due(i)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: sleep the rest
		}
		res.LagMs[i] = ms(time.Since(due))
		ready <- i
	}
	runtime.UnlockOSThread()
	close(ready)
	wg.Wait()
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
