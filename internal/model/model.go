// Package model serialises trained EMSTDP systems: the frozen conv
// feature extractor, its calibration constants, and the learned dense
// weights of either backend. A snapshot plus the original build options
// fully determines the deployed model — the workflow a fielded
// neuromorphic system needs (train in one session, deploy in another, or
// checkpoint an online learner mid-stream).
//
// Loading rebuilds the model from its options (datasets are procedural
// and seed-deterministic, so the data regenerates bit-identically) and
// then overwrites the learned state from the snapshot.
package model

import (
	"encoding/gob"
	"fmt"
	"io"

	"emstdp/internal/core"
	"emstdp/internal/fixed"
)

// Snapshot is the gob-encoded persistent form of a trained model.
type Snapshot struct {
	// Format guards against decoding incompatible snapshots.
	Format int
	// Options rebuilds the model skeleton (dataset, topology, backend).
	Options core.Options

	// Conv stack parameters and calibration.
	ConvW1, ConvW2 []float64
	ConvB1, ConvB2 []float64
	A1, A2         float64

	// FP backend: float dense weights per trainable layer.
	DenseW [][]float64
	// Chip backend: int8 mantissas and group exponents per plastic layer.
	ChipW    [][]int8
	ChipExps []uint
}

// FormatVersion identifies the current snapshot layout.
const FormatVersion = 1

// Save writes m's learned state to w.
func Save(w io.Writer, m *core.Model) error {
	snap := Snapshot{
		Format:  FormatVersion,
		Options: m.Opts,
		ConvW1:  append([]float64(nil), m.Conv.Conv1.W.Data...),
		ConvW2:  append([]float64(nil), m.Conv.Conv2.W.Data...),
		ConvB1:  append([]float64(nil), m.Conv.Conv1.B...),
		ConvB2:  append([]float64(nil), m.Conv.Conv2.B...),
		A1:      m.Conv.A1,
		A2:      m.Conv.A2,
	}
	if fp := m.FPNetwork(); fp != nil {
		for i := 0; i < fp.NumLayers(); i++ {
			snap.DenseW = append(snap.DenseW, append([]float64(nil), fp.Layer(i).W...))
		}
	}
	if ch := m.ChipNetwork(); ch != nil {
		for i := 0; i < ch.NumPlasticLayers(); i++ {
			g := ch.Plastic(i)
			snap.ChipW = append(snap.ChipW, append([]int8(nil), g.W...))
			snap.ChipExps = append(snap.ChipExps, g.Exp)
		}
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Load reconstructs a model from a snapshot written by Save.
func Load(r io.Reader) (*core.Model, error) {
	var snap Snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("model: decoding snapshot: %w", err)
	}
	if snap.Format != FormatVersion {
		return nil, fmt.Errorf("model: snapshot format %d, want %d", snap.Format, FormatVersion)
	}
	m, err := core.Build(snap.Options)
	if err != nil {
		return nil, fmt.Errorf("model: rebuilding skeleton: %w", err)
	}

	// Restore conv parameters and calibration, then recompute the
	// feature caches that depend on them.
	if len(snap.ConvW1) != m.Conv.Conv1.W.Len() || len(snap.ConvW2) != m.Conv.Conv2.W.Len() {
		return nil, fmt.Errorf("model: conv shape mismatch (snapshot %d/%d, model %d/%d)",
			len(snap.ConvW1), len(snap.ConvW2), m.Conv.Conv1.W.Len(), m.Conv.Conv2.W.Len())
	}
	if len(snap.ConvB1) != len(m.Conv.Conv1.B) || len(snap.ConvB2) != len(m.Conv.Conv2.B) {
		return nil, fmt.Errorf("model: conv bias mismatch (snapshot %d/%d, model %d/%d)",
			len(snap.ConvB1), len(snap.ConvB2), len(m.Conv.Conv1.B), len(m.Conv.Conv2.B))
	}
	copy(m.Conv.Conv1.W.Data, snap.ConvW1)
	copy(m.Conv.Conv2.W.Data, snap.ConvW2)
	copy(m.Conv.Conv1.B, snap.ConvB1)
	copy(m.Conv.Conv2.B, snap.ConvB2)
	m.Conv.A1, m.Conv.A2 = snap.A1, snap.A2
	m.RefreshFeatures()

	if fp := m.FPNetwork(); fp != nil {
		if len(snap.DenseW) != fp.NumLayers() {
			return nil, fmt.Errorf("model: snapshot has %d dense layers, model %d",
				len(snap.DenseW), fp.NumLayers())
		}
		for i, w := range snap.DenseW {
			dst := fp.Layer(i).W
			if len(w) != len(dst) {
				return nil, fmt.Errorf("model: dense layer %d size mismatch", i)
			}
			copy(dst, w)
			fp.Layer(i).MarkWeightsDirty()
		}
	}
	if ch := m.ChipNetwork(); ch != nil {
		if len(snap.ChipW) != ch.NumPlasticLayers() || len(snap.ChipExps) != len(snap.ChipW) {
			return nil, fmt.Errorf("model: snapshot has %d chip layers and %d exponents, model %d layers",
				len(snap.ChipW), len(snap.ChipExps), ch.NumPlasticLayers())
		}
		for i, w := range snap.ChipW {
			g := ch.Plastic(i)
			if len(w) != len(g.W) {
				return nil, fmt.Errorf("model: chip layer %d size mismatch", i)
			}
			copy(g.W, w)
			g.Exp = snap.ChipExps[i]
			for j, v := range g.W {
				g.W[j] = fixed.SatWeight(int64(v)) // defensive re-saturation
			}
		}
	}
	return m, nil
}

// decode and encode are small helpers shared with tests.
func decode(r io.Reader, snap *Snapshot) error { return gob.NewDecoder(r).Decode(snap) }
func encode(w io.Writer, snap *Snapshot) error { return gob.NewEncoder(w).Encode(snap) }
