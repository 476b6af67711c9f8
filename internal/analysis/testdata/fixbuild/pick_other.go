//go:build !amd64

package fixbuild

// Pick is the declaration for every other architecture.
func Pick() string { return "other" }
