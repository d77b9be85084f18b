//go:build race

package tuple

const poisonRecycled = true // PoisonRecycled's default
