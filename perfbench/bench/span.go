package bench

import (
	"bytes"
	"sync"
	"time"
)

// Span is one timed call at a layer seam of the traced master. Trace and
// Job tie it to the request that caused it; times are Unix nanoseconds.
type Span struct {
	Name  string `json:"name"`
	Trace string `json:"trace,omitempty"`
	Job   string `json:"job,omitempty"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	// Enumerated and Feasible are a plan.search span's SearchStats.
	Enumerated int `json:"enumerated,omitempty"`
	Feasible   int `json:"feasible,omitempty"`
	// Bytes is a wal.append span's record size.
	Bytes int `json:"bytes,omitempty"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// RuntimeStats are the traced master's Go runtime totals at shutdown.
type RuntimeStats struct {
	GCCPUSec float64 `json:"gc_cpu_sec"`
	// BusyCPUSec is the CPU time Go code and the runtime used (the
	// runtime's total available time less its idle time).
	BusyCPUSec    float64 `json:"busy_cpu_sec"`
	AllocObjects  uint64  `json:"alloc_objects"`
	HeapPeakBytes uint64  `json:"heap_peak_bytes"`
}

// TraceDump is what the traced master writes when it exits.
type TraceDump struct {
	Spans          []Span       `json:"spans"`
	PredictorCalls int64        `json:"predictor_calls"`
	Runtime        RuntimeStats `json:"runtime"`
}

// Recorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add records one span.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

var traceKey = []byte(`"trace":"`)

// LineTrace returns the trace ID of one canonical journal line, or "".
func LineTrace(line []byte) string {
	i := bytes.Index(line, traceKey)
	if i < 0 {
		return ""
	}
	rest := line[i+len(traceKey):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}
