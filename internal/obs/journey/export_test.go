package journey

// RefTracerText exposes the reference journey text export to the
// external differential tests.
var RefTracerText = refTracerText
