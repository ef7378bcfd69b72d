package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the harness into the program, or one layer
// probe. Parent is the index of the enclosing span (-1: none); ID is the
// op, trial or segment the span belongs to.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ID      int    `json:"id"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run pays one nil check per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) begin(name string, parent, id int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, StartNs: now, Parent: parent, ID: id})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[i].EndNs = now
	r.mu.Unlock()
}

// add records a span that ended just now and lasted d (campaign trials
// report their own elapsed time when they finish).
func (r *recorder) add(name string, parent, id int, d time.Duration) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, StartNs: now - int64(d), EndNs: now, Parent: parent, ID: id})
	r.mu.Unlock()
}

// selfTimes returns, per span name, total duration minus the part
// covered by child spans, in seconds, over the spans recorded from index
// from on (one workload's, when the recorder serves several).
func (r *recorder) selfTimes(from int) map[string]float64 {
	self := map[string]float64{}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans[from:] {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range r.spans[from:] {
		self[s.Name] += float64(s.EndNs-s.StartNs-child[from+i]) / 1e9
	}
	return self
}

// write stores the spans as JSON lines; a span's parent is the line
// number of the enclosing span, counting from 0.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
