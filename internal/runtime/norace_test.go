//go:build !race

package runtime

// raceBuild is set in race builds (race_test.go).
const raceBuild = false
