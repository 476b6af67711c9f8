// Package fixconc is loaded as internal/dist, so guardedsend flags the loop
// send in Broadcast. Locker's lock copy is left to go vet's copylocks check
// and Spawn's loop capture to Go 1.22's per-iteration loop variables.
package fixconc

import "sync"

// Broadcast sends into ch from a bare loop with no cancellation case.
func Broadcast(ch chan int, vals []int) {
	for _, v := range vals {
		ch <- v
	}
}

// Locker copies its mutex parameter by value.
func Locker(mu sync.Mutex) {
	mu.Lock()
	mu.Unlock()
}

// Spawn starts goroutines that capture the loop variable.
func Spawn(vals []int, f func(int)) {
	for i := range vals {
		go func() {
			f(i)
		}()
	}
}
