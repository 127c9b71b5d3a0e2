package obs

// RefObserverText exposes the reference timeline text export to the
// external differential tests.
var RefObserverText = refObserverText
