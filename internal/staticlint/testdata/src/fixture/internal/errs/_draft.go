// The go tool ignores files whose name starts with _, so the loader
// must not type-check this one; the file-level rules still read it.
package errs

// draft is clean, so only the loader's file list shows whether this
// file was type-checked.
func draft() string { return "draft" }
