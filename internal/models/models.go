// Package models defines scaled-down versions of the paper's two networks:
//
//   - MiniDeepCAM: an encoder-decoder semantic-segmentation CNN in the
//     spirit of DeepLabv3+ (DeepCAM "uses Google's Deeplabv3+ to perform
//     semantic segmentation") over 16-channel weather images, predicting
//     per-pixel {background, cyclone, atmospheric river} classes.
//   - MiniCosmoFlow: the CosmoFlow topology — "five layers of 3D
//     convolutional layers and three fully connected layers" — regressing
//     the four cosmological parameters.
//
// Spatial dims are reduced so the convergence experiments (Figs 6-7) run in
// seconds on a CPU, while the FP32-base vs FP16-decoded comparison the paper
// makes is preserved exactly.
package models

import (
	"fmt"

	"scipp/internal/nn"
)

// NumClasses is the DeepCAM segmentation class count (background, tropical
// cyclone, atmospheric river).
const NumClasses = 3

// MiniDeepCAM builds the segmentation model for [N, channels, H, W] inputs.
// H and W must be divisible by 4 (two pool/upsample stages).
func MiniDeepCAM(channels, h, w int) (*nn.Sequential, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("models: bad channel count %d", channels)
	}
	if h%4 != 0 || w%4 != 0 {
		return nil, fmt.Errorf("models: H and W must be multiples of 4, got %dx%d", h, w)
	}
	return nn.NewSequential(
		// Encoder.
		nn.NewConv2D("enc1", channels, 16, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool2D(2),
		nn.NewConv2D("enc2", 16, 32, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool2D(2),
		// Bottleneck: atrous context module — the dilated convolution is
		// DeepLabv3+'s signature operator ("encoder-decoder with atrous
		// separable convolution"). Dilation 2 with pad 2 preserves dims.
		nn.NewDilatedConv2D("mid", 32, 32, 3, 1, 2, 2),
		nn.NewReLU(),
		// Decoder.
		nn.NewUpsample2D(2),
		nn.NewConv2D("dec1", 32, 16, 3, 1, 1),
		nn.NewReLU(),
		nn.NewUpsample2D(2),
		nn.NewConv2D("dec2", 16, NumClasses, 3, 1, 1),
	), nil
}

// MiniCosmoFlowDropout builds the regression model with dropout before the
// dense head. The reference CosmoFlow uses dropout, which the paper lists
// among the sources of run-to-run convergence variability ("internal DNN
// processing, such as random weight drop-offs", §VIII-A). The dropout mask
// stream is deterministic in seed.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func MiniCosmoFlowDropout(d int, p float64, seed uint64) (*nn.Sequential, error) {
	m, err := MiniCosmoFlow(d)
	if err != nil {
		return nil, err
	}
	if p <= 0 {
		return m, nil
	}
	// Insert dropout after the flatten (before fc1).
	for i, l := range m.Layers {
		if _, ok := l.(*nn.Flatten); ok {
			layers := append([]nn.Layer{}, m.Layers[:i+1]...)
			layers = append(layers, nn.NewDropout(p, seed))
			layers = append(layers, m.Layers[i+1:]...)
			m.Layers = layers
			return m, nil
		}
	}
	return m, nil
}

// MiniCosmoFlow builds the regression model for [N, 4, D, D, D] inputs.
// D must be divisible by 8 (three pooled stages).
func MiniCosmoFlow(d int) (*nn.Sequential, error) {
	if d%8 != 0 || d < 8 {
		return nil, fmt.Errorf("models: D must be a multiple of 8, got %d", d)
	}
	dd := d / 8 // after three 2x pools
	flat := 32 * dd * dd * dd
	return nn.NewSequential(
		// Five 3D convolutional layers.
		nn.NewConv3D("c1", 4, 8, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool3D(2),
		nn.NewConv3D("c2", 8, 16, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool3D(2),
		nn.NewConv3D("c3", 16, 32, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool3D(2),
		nn.NewConv3D("c4", 32, 32, 3, 1, 1),
		nn.NewReLU(),
		nn.NewConv3D("c5", 32, 32, 3, 1, 1),
		nn.NewReLU(),
		// Three fully connected layers.
		nn.NewFlatten(),
		nn.NewDense("fc1", flat, 64),
		nn.NewReLU(),
		nn.NewDense("fc2", 64, 32),
		nn.NewReLU(),
		// Linear regression head: a bounded activation (tanh) saturates
		// under aggressive schedules and freezes training; the reference
		// implementation's scaled-tanh head has the same hazard, which MSE
		// on a linear head avoids without changing the task.
		nn.NewDense("fc3", 32, 4),
	), nil
}
