// Command fixdeadcode is the deadcode fixture, analyzed as a whole module
// of one main package.
package main

import "container/heap"

// handlers is a package-level table: one is reached only as a value in it.
var handlers = map[string]func() int{"one": one}

func one() int { return 1 }

// intHeap's methods are reached through heap.Interface, by the implicit
// conversion in heap.Push and heap.Pop, never by name.
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }

func (h *intHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// series has a Len, but not sort.Interface's or heap.Interface's Len() int,
// so the name alone keeps nothing.
type series struct{ n int64 }

func (s series) Len() int64 { return s.n }

// Unused is exported and nothing calls it.
func Unused() int { return helper() }

// helper is called only by Unused.
func helper() int { return 2 }

// kept has no caller but keeps its directive, so what it calls stays too.
//
//lint:ignore deadcode the fixture's example of a kept root
func kept() int { return keptHelper() }

func keptHelper() int { return 3 }

// live is called from main, so its directive suppresses nothing.
//
//lint:ignore deadcode stale: main calls it
func live() int { return 4 }

var sink int

func main() {
	h := &intHeap{}
	heap.Push(h, 3)
	sink = handlers["one"]() + live() + heap.Pop(h).(int) + int(series{n: 1}.n)
}
