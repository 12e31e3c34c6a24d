// Package ring provides bounded lock-free FIFO rings, the in-process
// substitute for the DPDK rte_ring library Minos uses to dispatch large
// requests from small cores to large cores and to model NIC RX/TX queues
// (§4.1). Two variants are provided:
//
//   - SPSC: single-producer/single-consumer, wait-free on both sides. Used
//     for per-queue NIC RX/TX paths, which have exactly one writer (the
//     steering NIC) and one reader (the owning core).
//   - MPMC: multi-producer/multi-consumer (Vyukov bounded queue). Used for
//     the software queues of large cores, where any small core may be the
//     producer, and for work-stealing designs where any core may consume.
//
// Both are bounded: Enqueue reports failure when full instead of blocking,
// matching hardware queue semantics — callers decide whether a full queue
// means drop (NIC) or retry (software handoff).
//
// Rings never block, so the package also holds the one way a consumer
// waits for them: Idle (poll for SpinBound after the last work) and
// Doorbell (then park until a producer rings).
package ring
