//go:build race

package runtime

// raceBuild is set in race builds, where sync.Pool drops a random
// quarter of what it is given: a free list's allocation count there is
// not what a production build pays.
const raceBuild = true
