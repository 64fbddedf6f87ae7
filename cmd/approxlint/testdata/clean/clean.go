// Package clean is a command fixture: nothing for any analyzer to find.
package clean

// Sum adds.
func Sum(a, b int) int { return a + b }
