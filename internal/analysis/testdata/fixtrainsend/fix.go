// Package fixtrainsend is a lint fixture for the trainer's send discipline.
// The analysis tests load it under scipp/internal/train so the guardedsend
// rule applies: a rank's report must not block once its peer is evicted.
package fixtrainsend

// ReportAll sends every rank's loss from a bare loop with no escape.
func ReportAll(losses chan float64, vals []float64) {
	for _, v := range vals {
		losses <- v
	}
}

// Report pairs the send with the group's abort; lint-clean.
func Report(losses chan float64, abort <-chan struct{}, v float64) bool {
	select {
	case losses <- v:
		return true
	case <-abort:
		return false
	}
}
