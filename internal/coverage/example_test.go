package coverage_test

import (
	"fmt"

	"roborepair/internal/coverage"
	"roborepair/internal/geom"
)

// Estimate how much of a field a handful of sensors cover.
func ExampleEstimator_Fraction() {
	field := geom.Square(geom.Pt(0, 0), 100)
	est := coverage.NewEstimator(field, 60, 50, 50)
	sensors := []geom.Point{geom.Pt(50, 50)}
	frac := est.Fraction(sensors)
	fmt.Printf("one central sensor with r=60 covers most of the field: %v\n", frac > 0.8)

	fmt.Printf("empty field covers nothing: %v\n", est.Fraction(nil) == 0)
	// Output:
	// one central sensor with r=60 covers most of the field: true
	// empty field covers nothing: true
}
