package dataserve

// ErrDetached exposes the torn-down-iterator sentinel to the black-box
// tests.
var ErrDetached = errDetached
