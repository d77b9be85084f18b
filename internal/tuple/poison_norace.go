//go:build !race

package tuple

const poisonRecycled = false // PoisonRecycled's default
