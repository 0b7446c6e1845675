package engine

// SnapshotFrameBytes lets the package's external tests lower the
// snapshot frame bound, as its internal tests do.
var SnapshotFrameBytes = &snapshotFrameBytes
