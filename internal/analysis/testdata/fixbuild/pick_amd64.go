package fixbuild

// Pick is declared once per architecture pair; the loader must type-check
// exactly one of the two files.
func Pick() string { return "amd64" }
