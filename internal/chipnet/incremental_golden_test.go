package chipnet

import (
	"hash/fnv"
	"testing"

	"emstdp/internal/rng"
)

// TestChipIncrementalGolden pins the weights the incremental protocol's
// two chip steps produce: a learn-new step with old-class outputs frozen
// and the learning rate reduced (two extra shift bits), then a
// consolidation step with every output live at the base rate. The
// frozen-row and replica-sync tests only compare weights against
// themselves; this one pins their values under both shifts.
func TestChipIncrementalGolden(t *testing.T) {
	const want = uint64(0x98fee6df32bcceae)
	cfg := DefaultConfig(8, 6, 3)
	cfg.Seed = 7
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	train := func(samples int) {
		for i := 0; i < samples; i++ {
			label := r.Intn(3)
			x := make([]float64, 8)
			for k := range x {
				x[k] = 0.1 + r.Uniform(0, 0.1)
				if k%3 == label {
					x[k] += 0.6
				}
			}
			net.TrainSample(x, label)
		}
	}

	net.SetOutputDisabled([]bool{true, true, false})
	net.SetLRReduced(true)
	train(12)
	net.EnableAllOutputs()
	net.SetLRReduced(false)
	train(12)

	h := fnv.New64a()
	for i := 0; i < net.NumPlasticLayers(); i++ {
		g := net.Plastic(i)
		h.Write([]byte{byte(g.Exp)})
		for _, w := range g.W {
			h.Write([]byte{byte(w)})
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("incremental weight hash %#x, want %#x", got, want)
	}
}
