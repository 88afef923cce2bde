// DVS gesture recognition: the edge-sensor use case the paper's
// introduction motivates. Event-camera spikes stream straight into the
// chip through mesh spike insertion — no frames, no rate coding — and
// the dense layers learn the eight gesture classes online with EMSTDP.
//
//	go run ./examples/dvs_gesture
package main

import (
	"fmt"
	"log"

	"emstdp/internal/chipnet"
	"emstdp/internal/dvs"
)

func main() {
	sensor := dvs.DefaultConfig()
	data := dvs.NewDataset(sensor, 480, 160, 3)

	cfg := chipnet.DefaultConfig(sensor.H*sensor.W, 64, int(dvs.NumGestures))
	cfg.SpikeInput = true // events enter as spikes, not biases
	cfg.WInit = 4         // sparse event streams need a hotter first layer
	cfg.EtaLog2 = 2       // and a higher rate against small trace counts
	net, err := chipnet.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor %dx%d, %d gesture classes, chip uses %d cores\n",
		sensor.H, sensor.W, dvs.NumGestures, net.CoresUsed())

	avgEvents := 0
	for _, s := range data.Train[:32] {
		avgEvents += s.EventCount()
	}
	fmt.Printf("mean events per %d-step stream: %d (density %.1f%%)\n",
		sensor.T, avgEvents/32,
		100*float64(avgEvents/32)/float64(sensor.H*sensor.W*sensor.T))

	for epoch := 1; epoch <= 3; epoch++ {
		for _, s := range data.Train {
			net.TrainSampleEvents(s.Events, int(s.Label))
		}
		cm := make([]int, int(dvs.NumGestures))
		correct := 0
		for _, s := range data.Test {
			p := net.PredictEvents(s.Events)
			cm[p]++
			if p == int(s.Label) {
				correct++
			}
		}
		fmt.Printf("epoch %d: gesture accuracy %.1f%% (chance %.1f%%)\n",
			epoch, 100*float64(correct)/float64(len(data.Test)), 100.0/float64(dvs.NumGestures))
	}

	// The §III-D host-I/O contrast, measured rather than estimated:
	net.ResetCounters()
	net.TrainSampleEvents(data.Train[0].Events, int(data.Train[0].Label))
	fmt.Printf("\nhost transactions per training sample:\n")
	fmt.Printf("  event streaming (this demo): %d — one per spike, natural for DVS\n",
		net.Counters().HostTransactions)
	fmt.Printf("  bias coding (frame data):    3 — what §III-D buys for images\n")
}
