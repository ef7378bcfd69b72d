package main

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// counters is one reading of the process-wide cost counters a segment
// is charged with.
type counters struct {
	wall    time.Time
	cpu     time.Duration // user+sys, getrusage
	mallocs uint64        // runtime.MemStats.Mallocs
	bytes   uint64        // runtime.MemStats.TotalAlloc
	rw      uint64        // syscr+syscw, /proc/self/io
	ctxsw   int64         // voluntary+involuntary context switches
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	c := counters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		rw:      procIO(),
		ctxsw:   ru.Nvcsw + ru.Nivcsw,
	}
	c.wall = time.Now()
	return c
}

// procIO returns syscr+syscw of this process, or 0 where /proc/self/io
// cannot be read (the syscall metrics then read 0).
func procIO() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var total uint64
	for _, line := range bytes.Split(b, []byte("\n")) {
		for _, key := range []string{"syscr: ", "syscw: "} {
			if bytes.HasPrefix(line, []byte(key)) {
				n, _ := strconv.ParseUint(string(line[len(key):]), 10, 64)
				total += n
			}
		}
	}
	return total
}

// segment is one measured slice of a workload: what it completed and
// what that cost. Time-based metrics are medians over segments, counts
// are sums over segments divided by ops.
type segment struct {
	ops, failed int64
	wall, cpu   float64 // seconds
	mallocs     uint64
	bytes       uint64
	rw          uint64
	ctxsw       int64
	latMs       float64 // the segment's median op latency (0: none taken)
}

// harness carries one run of one workload: its inputs (seed, length),
// the segments measured, the host probes taken between them, and the
// correctness verdicts.
type harness struct {
	workload string
	seed     uint64
	seconds  float64
	short    bool
	oneSetup bool      // set up once (the traced run reports no setup_s)
	rec      *recorder // nil unless this run is traced

	segs     []segment
	probesMs []float64
	setups   []float64 // seconds, one per set-up repeat
	errs     []string
	notes    []string           // known defects of the program seen in this run; they do not fail it
	layer    map[string]float64 // values the workload computes itself, by metric name
}

func newHarness(workload string, seed uint64, seconds float64, short, oneSetup bool, rec *recorder) *harness {
	return &harness{workload: workload, seed: seed, seconds: seconds, short: short, oneSetup: oneSetup, rec: rec, layer: map[string]float64{}}
}

// dur is the length of the measured phase.
func (h *harness) dur() time.Duration { return time.Duration(h.seconds * float64(time.Second)) }

func (h *harness) failf(format string, a ...any) {
	if len(h.errs) < 16 {
		h.errs = append(h.errs, fmt.Sprintf(format, a...))
	}
}

func (h *harness) notef(format string, a ...any) {
	if len(h.notes) < 16 {
		h.notes = append(h.notes, fmt.Sprintf(format, a...))
	}
}

// begin opens a segment: host probe, then a collection so that no
// segment pays for its predecessor's garbage, then the counters.
func (h *harness) begin() counters {
	h.probe()
	runtime.GC()
	return readCounters()
}

// end closes the segment opened at c0 and returns it for the workload to
// fill in ops, failed and latMs once it has verified the outputs.
func (h *harness) end(c0 counters) *segment {
	return h.cut(c0, readCounters())
}

// cut records the segment between two counter readings (the open-loop
// workload cuts its windows on a timer, without stopping the load).
func (h *harness) cut(c0, c1 counters) *segment {
	h.segs = append(h.segs, segment{
		wall:    c1.wall.Sub(c0.wall).Seconds(),
		cpu:     (c1.cpu - c0.cpu).Seconds(),
		mallocs: c1.mallocs - c0.mallocs,
		bytes:   c1.bytes - c0.bytes,
		rw:      c1.rw - c0.rw,
		ctxsw:   c1.ctxsw - c0.ctxsw,
	})
	return &h.segs[len(h.segs)-1]
}

// timeSetup runs one set-up repeat, under a span it hands to fn, and
// records how long it took. Like a segment, it starts from a collected
// heap.
func (h *harness) timeSetup(fn func(span int)) {
	runtime.GC()
	sp := h.rec.begin("setup", -1, len(h.setups))
	t0 := time.Now()
	fn(sp)
	h.setups = append(h.setups, time.Since(t0).Seconds())
	h.rec.end(sp)
}

// moreSetup reports whether the workload should set up again: once in a
// smoke or traced run; in a full run whenever the workload has room for
// it (before every segment where it can), so that the repeats, whose
// median is setup_s, sample the host over the whole run and not over
// its first second.
func (h *harness) moreSetup() bool {
	return len(h.setups) == 0 || !(h.short || h.oneSetup)
}

var (
	probeOnce sync.Once
	probeKey  ed25519.PrivateKey
	probeMsg  [64]byte
	probeMiB  []byte
)

// probe times a fixed stdlib-only unit of work (2000 ed25519 signatures
// of a 64-byte message and 20 SHA-256 passes over 1 MiB). Its median is
// harness.host_probe_ms: a reviewer tells a host-speed shift from a code
// change by it. End-to-end values are never divided by it.
func (h *harness) probe() {
	probeOnce.Do(func() {
		probeKey = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
		probeMiB = make([]byte, 1<<20)
	})
	signs, hashes := 2000, 20
	if h.short {
		signs, hashes = 20, 1
	}
	t0 := time.Now()
	for i := 0; i < signs; i++ {
		probeMsg[0] = byte(i)
		sink ^= int(ed25519.Sign(probeKey, probeMsg[:])[0])
	}
	for i := 0; i < hashes; i++ {
		probeMiB[0] = byte(i)
		sum := sha256.Sum256(probeMiB)
		sink ^= int(sum[0])
	}
	h.probesMs = append(h.probesMs, ms(time.Since(t0)))
}

// sink keeps probe results alive so the compiler cannot drop the work.
var sink int

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- statistics -------------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// iqrFrac is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives, which is how the benchmark's
// spreads are judged.
func iqrFrac(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		pos := i * (len(s) + 1)
		j := min(max(pos/4, 1), len(s)-1)
		delta := float64(pos-4*j) / 4
		return s[j-1]*(1-delta) + s[j]*delta
	}
	return (quartile(3) - quartile(1)) / m
}

// --- results ----------------------------------------------------------------

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	errs    []string
	notes   []string
	probeMs float64            // median host probe of the run
	self    map[string]float64 // traced run: seconds of self time per span name
}

// totals sums the segments.
func (h *harness) totals() (t segment) {
	for _, s := range h.segs {
		t.ops += s.ops
		t.failed += s.failed
		t.wall += s.wall
		t.cpu += s.cpu
		t.mallocs += s.mallocs
		t.bytes += s.bytes
		t.rw += s.rw
		t.ctxsw += s.ctxsw
	}
	return t
}

// perSegment maps every segment with successful ops through f.
func (h *harness) perSegment(f func(s segment) float64) []float64 {
	var out []float64
	for _, s := range h.segs {
		if s.ops > 0 {
			out = append(out, f(s))
		}
	}
	return out
}

func (h *harness) secondsPerOp() []float64 {
	return h.perSegment(func(s segment) float64 { return s.wall / float64(s.ops) })
}

func (h *harness) cpuUsPerOp() float64 {
	return median(h.perSegment(func(s segment) float64 { return s.cpu * 1e6 / float64(s.ops) }))
}

// endToEnd computes, as measured, the end-to-end metrics this workload
// is listed for (the gated ones and those spec.go demoted): times are
// medians over segments, counts are sums over segments per successful
// op.
func (h *harness) endToEnd() result {
	t := h.totals()
	ops := math.Max(float64(t.ops), 1)
	throughput := 0.0
	if spo := median(h.secondsPerOp()); spo > 0 {
		throughput = 1 / spo
	}
	values := map[string]float64{
		"throughput_per_s":   throughput,
		"latency_p50_ms":     median(h.perSegment(func(s segment) float64 { return s.latMs })),
		"recovery_ms":        h.layer["recovery_ms"],
		"cpu_us_per_op":      h.cpuUsPerOp(),
		"mallocs_per_op":     float64(t.mallocs) / ops,
		"rw_syscalls_per_op": float64(t.rw) / ops,
		"goodput_frac":       float64(t.ops) / math.Max(float64(t.ops+t.failed), 1),
		"setup_s":            median(h.setups),
	}
	r := result{
		Correct:   len(h.errs) == 0 && t.ops > 0,
		Attempted: max(t.ops+t.failed, 1),
		Failed:    t.failed,
		Metrics:   map[string]metric{},
		errs:      h.errs,
		notes:     h.notes,
		probeMs:   median(h.probesMs),
	}
	for _, s := range reportedSpec {
		if s.measuredOn(h.workload) {
			r.Metrics[s.Name] = metric{values[s.Name], s.Unit}
		}
	}
	return r
}

// line is the JSON object the driver reads: the run's verdict and the
// metrics named in specs.
func (r result) line(specs []spec) string {
	out := r
	out.Metrics = map[string]metric{}
	for _, s := range specs {
		out.Metrics[s.Name] = r.Metrics[s.Name]
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // a NaN or Inf metric: a harness bug, not an input
	}
	return string(b)
}

// awaitGoroutines waits for the goroutine count to fall back to base
// after a workload tore down (client broadcast laggards and closed
// connections' readers exit on their own within moments).
func (h *harness) awaitGoroutines(base int) {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			h.failf("goroutine leak: %d goroutines after teardown, %d before the workload", runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
