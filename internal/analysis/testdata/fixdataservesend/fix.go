// Package fixdataservesend is a lint fixture for the data service's send
// discipline. The analysis tests load it under scipp/internal/dataserve so
// the guardedsend rule applies: every send needs a select with an escape
// case — the pattern the service's workers use to hand outcomes to
// consumers, so tenant detach can never wedge a send.
package fixdataservesend

// Bare sends directly with no select.
func Bare(ch chan int, v int) {
	ch <- v
}

// Naked wraps the send in a single-case select with no escape.
func Naked(ch chan int, v int) {
	select {
	case ch <- v:
	}
}

// Guarded pairs the send with an abort receive; lint-clean.
func Guarded(ch chan int, abort <-chan struct{}, v int) bool {
	select {
	case ch <- v:
		return true
	case <-abort:
		return false
	}
}

// NonBlocking bounds the send with a default — the notify-wakeup idiom;
// lint-clean.
func NonBlocking(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
