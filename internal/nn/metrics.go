package nn

//lint:file-ignore deadcode queued for deletion with its tests (ROADMAP item 9)

import (
	"fmt"
	"math"

	"scipp/internal/tensor"
)

// IoU2D computes per-class intersection-over-union for a segmentation
// prediction: logits [N, K, H, W] against I16 labels [N, H, W]. Classes
// absent from both prediction and labels report IoU = NaN (undefined).
// DeepCAM's quality target is mean IoU. It panics on a label shape/dtype
// mismatch (programmer invariant).
func IoU2D(logits, labels *tensor.Tensor) []float64 {
	checkF32(logits, 4, "IoU2D")
	n, k, h, w := logits.Shape[0], logits.Shape[1], logits.Shape[2], logits.Shape[3]
	if labels.DT != tensor.I16 || !labels.Shape.Equal(tensor.Shape{n, h, w}) {
		panic(fmt.Sprintf("nn: IoU2D labels must be I16 [%d %d %d]", n, h, w))
	}
	plane := h * w
	inter := make([]int, k)
	union := make([]int, k)
	for ni := 0; ni < n; ni++ {
		base := ni * k * plane
		for p := 0; p < plane; p++ {
			best, bestC := float32(math.Inf(-1)), 0
			for c := 0; c < k; c++ {
				if v := logits.F32s[base+c*plane+p]; v > best {
					best, bestC = v, c
				}
			}
			lab := int(labels.I16s[ni*plane+p])
			if bestC == lab {
				inter[lab]++
				union[lab]++
			} else {
				union[bestC]++
				union[lab]++
			}
		}
	}
	out := make([]float64, k)
	for c := 0; c < k; c++ {
		if union[c] == 0 {
			out[c] = math.NaN()
			continue
		}
		out[c] = float64(inter[c]) / float64(union[c])
	}
	return out
}

// MeanIoU averages the defined per-class IoUs.
func MeanIoU(ious []float64) float64 {
	var sum float64
	var n int
	for _, v := range ious {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MAE computes the mean absolute error between pred [N, M] and target
// [N, M] — CosmoFlow's quality target is the mean absolute error of the
// predicted cosmological parameters. It panics on a shape mismatch
// (programmer invariant).
func MAE(pred, target *tensor.Tensor) float64 {
	checkF32(pred, 2, "MAE")
	if !pred.Shape.Equal(target.Shape) {
		panic(fmt.Sprintf("nn: MAE shapes %v vs %v", pred.Shape, target.Shape))
	}
	var sum float64
	for i := range pred.F32s {
		sum += math.Abs(float64(pred.F32s[i]) - float64(target.F32s[i]))
	}
	return sum / float64(pred.Elems())
}
