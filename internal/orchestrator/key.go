// Package orchestrator schedules experiment sweeps as explicit task
// graphs. A sweep stage (realize a dataset, pretrain a conv stack,
// train a checkpoint, evaluate a cell) becomes a Task keyed by a
// content address — the canonical hash of its full configuration and
// its upstream keys — so stages shared by many cells compute exactly
// once, results memoise across sweeps in a stage Cache with optional
// disk spill, and a warm rerun touches only the stages whose inputs
// changed. Scheduling issues the ready set over the engine worker pool
// in deterministic key order, with at most one task in flight per
// worker.
//
// Tasks must be pure functions of their configuration and dependency
// outputs, and must treat dependency outputs as read-only: that is
// what makes a sweep's results independent of cache hits and misses
// and of the pool width.
package orchestrator

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Key is a stage's content address: the SHA-256 of its stage kind, its
// canonical configuration bytes and its upstream keys. Two stages share
// a key exactly when they are the same computation.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (also the disk-spill
// filename stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Less orders keys by byte value — the deterministic issue order of the
// scheduler's ready set.
func (k Key) Less(o Key) bool { return bytes.Compare(k[:], o[:]) < 0 }

// Canon accumulates a stage configuration in a canonical, injective
// byte form: every field is written as a length-prefixed name, a type
// tag and a length-prefixed value, in call order. Distinct field
// sequences therefore produce distinct bytes (the property FuzzStageKey
// exercises), which is what lets a SHA-256 of the bytes serve as a
// collision-free content address for distinct configurations.
type Canon struct {
	buf []byte
}

// field type tags: a tagged value can never alias a value of another
// type (Int(1) and Str("1") canonicalise differently).
const (
	tagInt byte = iota + 1
	tagUint
	tagBool
	tagFloat
	tagStr
	tagInts
)

func (c *Canon) raw(name string, tag byte, payload []byte) *Canon {
	c.buf = binary.AppendUvarint(c.buf, uint64(len(name)))
	c.buf = append(c.buf, name...)
	c.buf = append(c.buf, tag)
	c.buf = binary.AppendUvarint(c.buf, uint64(len(payload)))
	c.buf = append(c.buf, payload...)
	return c
}

// Int writes a signed integer field.
func (c *Canon) Int(name string, v int64) *Canon {
	return c.raw(name, tagInt, binary.AppendVarint(nil, v))
}

// Uint writes an unsigned integer field.
func (c *Canon) Uint(name string, v uint64) *Canon {
	return c.raw(name, tagUint, binary.AppendUvarint(nil, v))
}

// Bool writes a boolean field.
func (c *Canon) Bool(name string, v bool) *Canon {
	b := byte(0)
	if v {
		b = 1
	}
	return c.raw(name, tagBool, []byte{b})
}

// Float writes a float64 field by its exact bit pattern.
func (c *Canon) Float(name string, v float64) *Canon {
	return c.raw(name, tagFloat, binary.BigEndian.AppendUint64(nil, math.Float64bits(v)))
}

// Str writes a string field.
func (c *Canon) Str(name, v string) *Canon {
	return c.raw(name, tagStr, []byte(v))
}

// Ints writes an integer-slice field (length, then each element).
func (c *Canon) Ints(name string, vs []int) *Canon {
	p := binary.AppendUvarint(nil, uint64(len(vs)))
	for _, v := range vs {
		p = binary.AppendVarint(p, int64(v))
	}
	return c.raw(name, tagInts, p)
}

// Bytes returns the canonical form accumulated so far. The slice aliases
// the builder; callers must not mutate it.
func (c *Canon) Bytes() []byte {
	if c == nil {
		return nil
	}
	return c.buf
}

// StageKey computes the content address of a stage: SHA-256 over the
// framed stage kind, the canonical configuration and the upstream keys
// in order. Upstream keys are content addresses themselves, so a
// change anywhere in a stage's ancestry changes its key.
func StageKey(stage string, canon []byte, deps ...Key) Key {
	h := sha256.New()
	var frame [binary.MaxVarintLen64]byte
	writeFramed := func(b []byte) {
		n := binary.PutUvarint(frame[:], uint64(len(b)))
		h.Write(frame[:n])
		h.Write(b)
	}
	writeFramed([]byte(stage))
	writeFramed(canon)
	n := binary.PutUvarint(frame[:], uint64(len(deps)))
	h.Write(frame[:n])
	for _, d := range deps {
		h.Write(d[:])
	}
	var k Key
	h.Sum(k[:0])
	return k
}
