package suites

import (
	"fmt"
	"math"

	"scipp/internal/pipeline"
)

// collectProbeRows extracts one feature and target row per sample of a
// padded batch, keyed by dataset index. Features are per-channel masked
// means: channel axis = the first post-batch axis, mask weights along the
// trailing axis, zero-observation samples contribute all-zero rows. Targets
// are the label elements when the label is small (parameter-recovery
// domains) or the label mean (dense segmentation masks).
func collectProbeRows(pb *pipeline.PaddedBatch, feats, targets [][]float64) error {
	shape := pb.Data.Shape
	rank := len(shape)
	if rank < 2 {
		return fmt.Errorf("padded batch rank %d", rank)
	}
	stride := 1
	for _, d := range shape[1:] {
		stride *= d
	}
	channels := 1
	if rank >= 3 {
		channels = shape[1]
	}
	maxLen := shape[rank-1]
	rows := 0
	if maxLen > 0 && channels > 0 {
		rows = stride / channels / maxLen
	}
	for s := 0; s < pb.Size(); s++ {
		idx := pb.Indices[s]
		if idx < 0 || idx >= len(feats) {
			return fmt.Errorf("sample index %d out of range", idx)
		}
		mask := pb.Mask.F32s[s*maxLen : (s+1)*maxLen]
		var msum float64
		for _, m := range mask {
			msum += float64(m)
		}
		f := make([]float64, channels)
		if msum > 0 {
			base := s * stride
			per := stride / channels
			for ch := 0; ch < channels; ch++ {
				var sum float64
				for r := 0; r < rows; r++ {
					row := pb.Data.F32s[base+ch*per+r*maxLen : base+ch*per+(r+1)*maxLen]
					for t, v := range row {
						sum += float64(v) * float64(mask[t])
					}
				}
				f[ch] = sum / (float64(rows) * msum)
			}
		}
		feats[idx] = f

		lbl := pb.Labels[s].ToF32().F32s
		if len(lbl) <= 8 {
			row := make([]float64, len(lbl))
			for i, v := range lbl {
				row[i] = float64(v)
			}
			targets[idx] = row
		} else {
			var sum float64
			for _, v := range lbl {
				sum += float64(v)
			}
			targets[idx] = []float64{sum / float64(len(lbl))}
		}
	}
	return nil
}

// probeCap bounds the probe's gradient steps: the converged loss is read
// off the trajectory's end, so the cap also defines "achievable".
const probeCap = 5000

// probeSteps fits a zero-initialized linear probe (bias + max-abs-normalized
// features and targets) by full-batch gradient descent and returns the
// number of steps until the loss has covered 95% of the achievable
// reduction — the gap between the initial loss and the converged one. The
// relative target makes the metric meaningful across domains whose labels
// differ wildly in how linearly predictable they are (the zero-mean
// CosmoFlow parameters admit far less reduction than the weather normals).
func probeSteps(feats, targets [][]float64) int {
	n := len(feats)
	if n == 0 || len(feats[0]) == 0 || len(targets[0]) == 0 {
		return 0
	}
	f, k := len(feats[0]), len(targets[0])
	x := make([][]float64, n)
	y := make([][]float64, n)
	for i := range x {
		x[i] = append([]float64{1}, feats[i]...) // bias column
		y[i] = append([]float64(nil), targets[i]...)
	}
	normalize(x, 1) // leave the bias column alone
	normalize(y, 0)

	w := make([][]float64, f+1)
	for i := range w {
		w[i] = make([]float64, k)
	}
	loss0 := probeLoss(x, y, w)
	if loss0 == 0 {
		return 0
	}
	lr := 0.5 / float64(f+1)
	losses := make([]float64, 0, probeCap)
	for step := 1; step <= probeCap; step++ {
		grad := make([][]float64, f+1)
		for i := range grad {
			grad[i] = make([]float64, k)
		}
		for i := range x {
			for j := 0; j < k; j++ {
				var pred float64
				for d := 0; d <= f; d++ {
					pred += x[i][d] * w[d][j]
				}
				e := 2 * (pred - y[i][j]) / float64(n*k)
				for d := 0; d <= f; d++ {
					grad[d][j] += e * x[i][d]
				}
			}
		}
		for d := 0; d <= f; d++ {
			for j := 0; j < k; j++ {
				w[d][j] -= lr * grad[d][j]
			}
		}
		losses = append(losses, probeLoss(x, y, w))
	}
	// The trajectory is monotone (full-batch GD, stable step size), so the
	// last loss is the converged one; quality = 95% of the way there.
	target := losses[probeCap-1] + 0.05*(loss0-losses[probeCap-1])
	for step, l := range losses {
		if l <= target {
			return step + 1
		}
	}
	return probeCap
}

// normalize scales each column from `from` on to max-abs 1.
func normalize(m [][]float64, from int) {
	if len(m) == 0 {
		return
	}
	for j := from; j < len(m[0]); j++ {
		var max float64
		for i := range m {
			if a := math.Abs(m[i][j]); a > max {
				max = a
			}
		}
		if max > 0 {
			for i := range m {
				m[i][j] /= max
			}
		}
	}
}

func probeLoss(x, y, w [][]float64) float64 {
	var loss float64
	k := len(y[0])
	for i := range x {
		for j := 0; j < k; j++ {
			var pred float64
			for d := range w {
				pred += x[i][d] * w[d][j]
			}
			e := pred - y[i][j]
			loss += e * e
		}
	}
	return loss / float64(len(x)*k)
}
