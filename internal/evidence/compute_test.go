package evidence

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"btr/internal/flow"
)

// referenceHashCompute is a frozen copy of HashCompute as it was before
// it hashed from a pooled buffer: a sort.Slice over a heap copy of the
// inputs and a streaming sha256. The current HashCompute must agree with
// it on every input, ties between equal (logical, producer) pairs
// included, since a re-executing validator and the producer must compute
// the same value.
func referenceHashCompute(task flow.TaskID, period uint64, inputs []Record) []byte {
	sorted := append([]Record(nil), inputs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Logical != sorted[j].Logical {
			return sorted[i].Logical < sorted[j].Logical
		}
		return sorted[i].Producer < sorted[j].Producer
	})
	h := sha256.New()
	h.Write([]byte(task))
	var pb [8]byte
	binary.LittleEndian.PutUint64(pb[:], period)
	h.Write(pb[:])
	var lastLogical flow.TaskID
	for i, in := range sorted {
		if i > 0 && in.Logical == lastLogical {
			continue
		}
		lastLogical = in.Logical
		h.Write([]byte(in.Logical))
		h.Write(in.Value)
	}
	return h.Sum(nil)[:16]
}

func TestHashComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		// Few distinct names so that equal (logical, producer) pairs with
		// different values are common; up to 40 inputs so that the sort
		// runs past its insertion-sort cutoff and past the stack buffer.
		n := rng.Intn(41)
		inputs := make([]Record, n)
		for i := range inputs {
			logical := flow.TaskID(fmt.Sprintf("t%d", rng.Intn(4)))
			inputs[i] = Record{
				Logical:  logical,
				Producer: flow.TaskID(fmt.Sprintf("%s#%d", logical, rng.Intn(3))),
				Value:    []byte(fmt.Sprintf("v%d", rng.Intn(1000))),
			}
		}
		task := flow.TaskID(fmt.Sprintf("task%d", rng.Intn(5)))
		period := rng.Uint64()
		before := append([]Record(nil), inputs...)
		got := HashCompute(task, period, inputs)
		want := referenceHashCompute(task, period, inputs)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d inputs): HashCompute = %x, reference = %x", trial, n, got, want)
		}
		if app := AppendHashCompute([]byte("dst:"), task, period, inputs); string(app) != "dst:"+string(want) {
			t.Fatalf("trial %d: AppendHashCompute = %x, want the reference appended to dst", trial, app)
		}
		for i := range inputs {
			if inputs[i].Producer != before[i].Producer || !bytes.Equal(inputs[i].Value, before[i].Value) {
				t.Fatalf("trial %d: HashCompute reordered or changed its inputs", trial)
			}
		}
	}
}

func TestHashComputeAllocs(t *testing.T) {
	inputs := []Record{
		{Logical: "b", Producer: "b#1", Value: []byte("second")},
		{Logical: "a", Producer: "a#0", Value: []byte("first")},
		{Logical: "b", Producer: "b#0", Value: []byte("second")},
	}
	HashCompute("t", 1, inputs) // warm the scratch pool
	if got := testing.AllocsPerRun(100, func() { _ = HashCompute("t", 7, inputs) }); got > 1 {
		t.Fatalf("HashCompute allocates %.1f objects per call, want at most 1 (its result)", got)
	}
	dst := make([]byte, 0, 16)
	if got := testing.AllocsPerRun(100, func() { _ = AppendHashCompute(dst, "t", 7, inputs) }); got != 0 {
		t.Fatalf("AppendHashCompute into a 16-byte dst allocates %.1f objects per call, want 0", got)
	}
}

// referenceSourceValue is SourceValue as it was before it hashed from a
// stack buffer: a streaming sha256 over "env:", the task and the period.
func referenceSourceValue(task flow.TaskID, period uint64) []byte {
	h := sha256.New()
	h.Write([]byte("env:"))
	h.Write([]byte(task))
	var pb [8]byte
	binary.LittleEndian.PutUint64(pb[:], period)
	h.Write(pb[:])
	return h.Sum(nil)[:16]
}

// TestSourceValueMatchesReference pins SourceValue's bytes to the
// streaming form, for task IDs that fit its stack buffer and longer
// ones, and its allocations at one, the result.
func TestSourceValueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		task := flow.TaskID(bytes.Repeat([]byte{'a' + byte(trial%26)}, rng.Intn(100)))
		period := rng.Uint64()
		if got, want := SourceValue(task, period), referenceSourceValue(task, period); !bytes.Equal(got, want) {
			t.Fatalf("SourceValue(%q, %d) = %x, reference = %x", task, period, got, want)
		}
	}
	if got := testing.AllocsPerRun(100, func() { _ = SourceValue("sensor#0", 7) }); got != 1 {
		t.Fatalf("SourceValue allocates %.1f objects per call, want 1 (its result)", got)
	}
}
