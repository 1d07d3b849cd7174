package reductions

import (
	"ccs/internal/failures"
	"ccs/internal/fsp"
	"context"
)

// failuresEq adapts the failures package for the Theorem 5.1 test.
func failuresEq(p, q *fsp.FSP) (bool, *failures.Witness, error) {
	return failures.Equivalent(context.Background(), p, q)
}
