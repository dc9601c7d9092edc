// Excluded from the analysed program by its GOOS filename suffix, as
// go build excludes it on every platform but plan9.
package errs

// plan9Only is clean, so only the loader's file list shows whether
// this file was type-checked.
func plan9Only() string { return "plan9" }
