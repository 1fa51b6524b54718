//! The explicit failure modes of the serving subsystem.
//!
//! Every way a served query can fail is a visible, typed outcome — most
//! importantly [`ServeError::Overloaded`], the backpressure rejection a
//! bounded admission queue turns a full buffer into. A service that serves
//! billion-scale traffic (the paper's Taobao deployment) sheds load
//! explicitly; it does not queue unboundedly and let latency collapse.

use std::fmt;

/// Why a served query did not produce an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full: the request was rejected at submit time
    /// without blocking (counted in
    /// [`ServerMetrics::rejected`](crate::metrics::MetricsSnapshot::rejected)).
    Overloaded,
    /// The server's workers have shut down; no more requests are accepted.
    ShuttingDown,
    /// The request's deadline passed while it waited in the queue; the worker
    /// dropped it without searching (the answer would have arrived too late
    /// to be useful).
    DeadlineExceeded,
    /// The response slot already carries an in-flight request; one slot
    /// tracks one outstanding query at a time.
    SlotBusy,
    /// `wait` was called on a slot with no submitted request to wait for.
    NotSubmitted,
    /// `wait_timeout` elapsed before the response arrived (the request may
    /// still complete later; the slot stays pending).
    WaitTimeout,
    /// The search panicked on the worker thread. The worker caught it,
    /// resolved this request with this error, and kept serving — a client is
    /// never left waiting on a request a panic swallowed.
    WorkerPanicked,
    /// An insert/delete was submitted to a server that was not started with
    /// [`Server::start_mutable`](crate::server::Server::start_mutable) —
    /// a frozen index has no mutation path.
    NotMutable,
    /// The index refused the mutation: the vector's dimension did not match
    /// the index, a coordinate was NaN or infinite, or the sealed-successor
    /// handover could not be completed.
    MutationRejected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ServeError::Overloaded => "admission queue full: request rejected (overloaded)",
            ServeError::ShuttingDown => "server is shutting down",
            ServeError::DeadlineExceeded => "deadline passed before the query was served",
            ServeError::SlotBusy => "response slot already has an in-flight request",
            ServeError::NotSubmitted => "no submitted request to wait for",
            ServeError::WaitTimeout => "timed out waiting for the response",
            ServeError::WorkerPanicked => "the search panicked on the worker thread",
            ServeError::NotMutable => "server is not serving a mutable index",
            ServeError::MutationRejected => "the index refused the mutation",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_compare() {
        assert_eq!(ServeError::Overloaded, ServeError::Overloaded);
        assert_ne!(ServeError::Overloaded, ServeError::ShuttingDown);
        for e in [
            ServeError::Overloaded,
            ServeError::ShuttingDown,
            ServeError::DeadlineExceeded,
            ServeError::SlotBusy,
            ServeError::NotSubmitted,
            ServeError::WaitTimeout,
            ServeError::WorkerPanicked,
            ServeError::NotMutable,
            ServeError::MutationRejected,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
