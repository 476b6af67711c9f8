//go:build fixbuild_tag

package fixbuild

// Pick here would redeclare it: the file builds only under a tag no build
// sets.
func Pick() string { return "tagged" }
