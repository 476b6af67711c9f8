//go:build ignore

// This directory has no file go build would compile, so it is no package.
package main
