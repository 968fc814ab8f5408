package machine

// ReadSnapshotPerPage exposes the reference snapshot decoder to the
// external tests.
var ReadSnapshotPerPage = readSnapshotPerPage
