package evidence

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"btr/internal/flow"
)

// HashCompute is the canonical deterministic task function used for
// generic (non-plant) workloads: the output value of a task is a hash of
// its identity, the period, and its input values (sorted by producing
// logical task so replica arrival order does not matter). Both the runtime
// (to execute tasks) and validators (to re-execute them for wrong-output
// proofs) use this same function, which is what makes commission faults
// attributable.
//
// It allocates only its 16-byte result: the inputs are ordered through a
// stack array of pointers and hashed from a stack buffer, which an input
// (task, period, each logical input's ID and value) over 256 bytes
// outgrows to the heap.
func HashCompute(task flow.TaskID, period uint64, inputs []Record) []byte {
	return AppendHashCompute(nil, task, period, inputs)
}

// AppendHashCompute appends HashCompute's value to dst and returns the
// extended slice; it allocates nothing when dst has 16 bytes to spare.
// It is a runtime.TaskFunc, and retains neither dst nor inputs.
func AppendHashCompute(dst []byte, task flow.TaskID, period uint64, inputs []Record) []byte {
	var pbuf [16]*Record
	sorted := pbuf[:0]
	for i := range inputs {
		sorted = append(sorted, &inputs[i])
	}
	slices.SortFunc(sorted, func(a, b *Record) int {
		if c := cmp.Compare(a.Logical, b.Logical); c != 0 {
			return c
		}
		return cmp.Compare(a.Producer, b.Producer)
	})
	var mb [256]byte
	msg := append(mb[:0], task...)
	msg = binary.LittleEndian.AppendUint64(msg, period)
	// Deduplicate replicas of the same logical input: replicas carry the
	// same value when correct, and the consumer computes from one value
	// per logical input.
	for i, in := range sorted {
		if i > 0 && in.Logical == sorted[i-1].Logical {
			continue
		}
		msg = append(msg, in.Logical...)
		msg = append(msg, in.Value...)
	}
	sum := sha256.Sum256(msg)
	return append(dst, sum[:16]...)
}

// SourceValue is the canonical deterministic environment sample: all
// replicas of a source observe the same physical world, modeled as a hash
// of "env:", the logical source ID and the period. It allocates only its
// 16-byte result. (Plant-backed workloads replace this with real sensor
// readings.)
func SourceValue(task flow.TaskID, period uint64) []byte {
	return AppendSourceValue(make([]byte, 0, 16), task, period)
}

// AppendSourceValue appends SourceValue's sample to dst and returns the
// extended slice; it is a runtime.SourceFunc. The hash input is built in
// a stack buffer, so a task ID of up to 52 bytes costs nothing when dst
// has 16 bytes to spare.
func AppendSourceValue(dst []byte, task flow.TaskID, period uint64) []byte {
	var mb [64]byte
	msg := append(append(mb[:0], "env:"...), task...)
	sum := sha256.Sum256(binary.LittleEndian.AppendUint64(msg, period))
	return append(dst, sum[:16]...)
}
