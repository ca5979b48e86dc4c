//go:build !amd64 || purego

package fft

// When the assembly is excluded from the build (purego tag or non-amd64
// GOARCH) the dispatch table keeps the portable Go kernels and KernelPath
// reports "purego".
func init() { kernelPath = "purego" }
