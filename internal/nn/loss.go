package nn

import (
	"fmt"
	"math"

	"scipp/internal/tensor"
)

// MSELoss returns the mean squared error between pred [N, M] and target
// [N, M] plus the gradient dL/dpred. It panics on a shape mismatch
// (programmer invariant: both come from the same static model wiring).
func MSELoss(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	checkF32(pred, 2, "MSELoss")
	if !pred.Shape.Equal(target.Shape) {
		panic(fmt.Sprintf("nn: MSE shapes %v vs %v", pred.Shape, target.Shape))
	}
	n := pred.Elems()
	grad := tensor.New(tensor.F32, pred.Shape...)
	var loss float64
	inv := 2 / float64(n)
	for i := range pred.F32s {
		d := float64(pred.F32s[i]) - float64(target.F32s[i])
		loss += d * d
		grad.F32s[i] = float32(d * inv)
	}
	return loss / float64(n), grad
}

// SoftmaxCrossEntropy2D computes the per-pixel multi-class segmentation loss
// of DeepCAM: logits [N, K, H, W], labels I16 [N, H, W] with class ids in
// [0, K). Returns mean loss over pixels and dL/dlogits. It panics on a
// label shape/dtype mismatch or an out-of-range class id (programmer
// invariant: labels are produced by the repo's own generators).
func SoftmaxCrossEntropy2D(logits *tensor.Tensor, labels *tensor.Tensor) (float64, *tensor.Tensor) {
	checkF32(logits, 4, "SoftmaxCrossEntropy2D")
	n, k, h, w := logits.Shape[0], logits.Shape[1], logits.Shape[2], logits.Shape[3]
	if labels.DT != tensor.I16 || !labels.Shape.Equal(tensor.Shape{n, h, w}) {
		panic(fmt.Sprintf("nn: labels must be I16 [%d %d %d], got %v %v", n, h, w, labels.DT, labels.Shape))
	}
	grad := tensor.New(tensor.F32, logits.Shape...)
	pixels := n * h * w
	losses := make([]float64, n)
	plane := h * w
	parallelFor(n, func(ni int) {
		var loss float64
		base := ni * k * plane
		for p := 0; p < plane; p++ {
			// Stable softmax over the K class logits of this pixel.
			maxv := float32(math.Inf(-1))
			for c := 0; c < k; c++ {
				if v := logits.F32s[base+c*plane+p]; v > maxv {
					maxv = v
				}
			}
			var sum float64
			for c := 0; c < k; c++ {
				sum += math.Exp(float64(logits.F32s[base+c*plane+p] - maxv))
			}
			lab := int(labels.I16s[ni*plane+p])
			if lab < 0 || lab >= k {
				panic(fmt.Sprintf("nn: label %d out of %d classes", lab, k))
			}
			logSum := math.Log(sum)
			loss += logSum - float64(logits.F32s[base+lab*plane+p]-maxv)
			invP := 1 / float64(pixels)
			for c := 0; c < k; c++ {
				pSoft := math.Exp(float64(logits.F32s[base+c*plane+p]-maxv)) / sum
				g := pSoft
				if c == lab {
					g -= 1
				}
				grad.F32s[base+c*plane+p] = float32(g * invP)
			}
		}
		losses[ni] = loss
	})
	var total float64
	for _, l := range losses {
		total += l
	}
	return total / float64(pixels), grad
}
