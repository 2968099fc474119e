// Package edge models deployment on the paper's target hardware: a
// custom PCB with an STM32F722RET6 microcontroller (ARM Cortex-M7 @
// 216 MHz) driving a wearable airbag that needs 150 ms to inflate.
// It provides a cycle-cost model for per-segment inference latency, a
// flash/RAM budget check for the quantized model, a sample-by-sample
// streaming detector (filter → sensor fusion → ring buffer → CNN) and
// an airbag trigger simulator that verifies the pre-impact deadline.
//
// The real hardware is not available in this environment; the cycle
// model is the documented substitution. Its per-operation costs are
// calibrated to the ballpark of CMSIS-NN-style int8 kernels without
// hand-tuned SIMD, which lands the paper's CNN near the reported
// 4 ms per-segment inference.
package edge

import (
	"fmt"
	"time"

	"repro/internal/nn"
)

// Device describes a deployment target's budget and cost model.
type Device struct {
	Name       string
	ClockHz    float64
	FlashBytes int
	RAMBytes   int

	// CyclesPerMAC is the amortised cost of one int8 multiply-
	// accumulate, including load/store overhead.
	CyclesPerMAC float64
	// CyclesPerElem is the cost of one element-wise op (ReLU, pool
	// comparison, requantization).
	CyclesPerElem float64
	// LayerOverheadCycles covers per-layer setup (loop prologues,
	// buffer bookkeeping).
	LayerOverheadCycles float64
	// FusionCyclesPerSample is the sensor-fusion cost per incoming
	// sample (the paper attributes ≈3 ms per segment to data fusion).
	FusionCyclesPerSample float64
	// ActiveNanojoulePerCycle is the core's switching energy, for the
	// battery-life estimate a wearable lives or dies by.
	ActiveNanojoulePerCycle float64
}

// STM32F722 returns the paper's target: 216 MHz Cortex-M7 with
// 256 KiB of flash and 256 KiB of RAM available to the model (§IV-C).
func STM32F722() Device {
	return Device{
		Name:                "STM32F722RET6",
		ClockHz:             216e6,
		FlashBytes:          256 * 1024,
		RAMBytes:            256 * 1024,
		CyclesPerMAC:        8,
		CyclesPerElem:       12,
		LayerOverheadCycles: 2000,
		// ≈3 ms of fusion per 400 ms segment ⇒ ~16.2k cycles/sample
		// at 100 Hz and 216 MHz.
		FusionCyclesPerSample: 16000,
		// ~100 mW active at 216 MHz (datasheet run-mode current)
		// ⇒ ≈0.46 nJ/cycle.
		ActiveNanojoulePerCycle: 0.46,
	}
}

// EnergyPerSegmentUJ estimates the active energy (µJ) one segment
// costs: inference plus the fusion work for the samples of one stride.
func (d Device) EnergyPerSegmentUJ(c Cost, strideSamples int) float64 {
	cycles := float64(c.MACs)*d.CyclesPerMAC +
		float64(c.Elems)*d.CyclesPerElem +
		float64(c.Layers)*d.LayerOverheadCycles +
		float64(strideSamples)*d.FusionCyclesPerSample
	return cycles * d.ActiveNanojoulePerCycle / 1000
}

// Cost is the work of one inference.
type Cost struct {
	MACs   int // multiply-accumulates
	Elems  int // element-wise operations
	Layers int
}

// Add accumulates another cost.
func (c *Cost) Add(o Cost) {
	c.MACs += o.MACs
	c.Elems += o.Elems
	c.Layers += o.Layers
}

// InferenceTime converts a cost to wall-clock time on the device.
func (d Device) InferenceTime(c Cost) time.Duration {
	cycles := float64(c.MACs)*d.CyclesPerMAC +
		float64(c.Elems)*d.CyclesPerElem +
		float64(c.Layers)*d.LayerOverheadCycles
	return time.Duration(cycles / d.ClockHz * float64(time.Second))
}

// FusionTime is the sensor-fusion cost for n samples.
func (d Device) FusionTime(n int) time.Duration {
	return time.Duration(float64(n) * d.FusionCyclesPerSample / d.ClockHz * float64(time.Second))
}

// FitsFlash reports whether a model image of the given size deploys.
func (d Device) FitsFlash(bytes int) bool { return bytes <= d.FlashBytes }

// FitsRAM reports whether the activation memory fits.
func (d Device) FitsRAM(bytes int) bool { return bytes <= d.RAMBytes }

// ModelCost walks a float network's architecture and tallies the
// integer-inference work of its quantized counterpart. Layer support
// mirrors the deployable families plus the recurrent baselines (for
// the comparison of why LSTMs "can hardly be implemented on
// resource-constrained devices", as the paper puts it).
func ModelCost(net *nn.Network, inShape []int) (Cost, error) {
	var total Cost
	shape := append([]int(nil), inShape...)
	for _, l := range net.Layers {
		c, out, err := layerCost(l, shape)
		if err != nil {
			return Cost{}, err
		}
		total.Add(c)
		shape = out
	}
	return total, nil
}

func layerCost(l nn.Layer, in []int) (Cost, []int, error) {
	out, err := l.OutShape(in)
	if err != nil {
		return Cost{}, nil, err
	}
	outN := 1
	for _, d := range out {
		outN *= d
	}
	switch ll := l.(type) {
	case *nn.Dense:
		return Cost{MACs: ll.In * ll.Out, Elems: ll.Out, Layers: 1}, out, nil
	case *nn.Conv1D:
		outT := in[0] - ll.Kernel + 1
		return Cost{MACs: outT * ll.Filters * ll.Kernel * ll.InCh, Elems: outN, Layers: 1}, out, nil
	case *nn.MaxPool1D, *nn.ReLU, *nn.Sigmoid, *nn.Flatten:
		return Cost{Elems: outN, Layers: 1}, out, nil
	case *nn.LSTM:
		T := in[0]
		perStep := 4 * ll.Hidden * (ll.InCh + ll.Hidden)
		return Cost{MACs: T * perStep, Elems: T * 10 * ll.Hidden, Layers: 1}, out, nil
	case *nn.ConvLSTM:
		T := in[0]
		perStep := ll.Ch * 4 * ll.Filters * ll.Kernel * (1 + ll.Filters)
		return Cost{MACs: T * perStep, Elems: T * 10 * ll.Ch * ll.Filters, Layers: 1}, out, nil
	case *nn.Branch:
		var c Cost
		for bi, stack := range ll.Stacks {
			shape := []int{in[0], ll.Cols[bi][1] - ll.Cols[bi][0]}
			for _, sl := range stack {
				sc, sout, err := layerCost(sl, shape)
				if err != nil {
					return Cost{}, nil, err
				}
				c.Add(sc)
				shape = sout
			}
		}
		c.Layers++
		c.Elems += outN // concat copies
		return c, out, nil
	default:
		return Cost{}, nil, fmt.Errorf("edge: no cost model for layer %s", l.Name())
	}
}
