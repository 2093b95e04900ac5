package mm

// Scratch is an empty placeholder kept only as the type of serve.New's
// scratch parameter, which is ignored: no batch kernel takes caller
// scratch any more — an algorithm with intermediate columns (Decoupled's
// packed TLB-miss list) owns and reuses its own buffers.
type Scratch struct{}
