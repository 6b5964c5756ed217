//! Error type of the serving engine.

use std::fmt;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServingError>;

/// Errors surfaced by routing, shard execution, and partition installation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingError {
    /// A multiget referenced a key outside the engine's key universe.
    KeyOutOfRange {
        /// Offending key.
        key: u32,
        /// Number of keys the engine serves.
        num_keys: usize,
    },
    /// An installed partition does not cover the engine's key universe.
    PartitionMismatch {
        /// Keys covered by the offered partition.
        got: usize,
        /// Keys the engine serves.
        expected: usize,
    },
    /// A partition with zero buckets was offered.
    EmptyPartition,
    /// A delta or a route plan referenced a shard outside the live placement's shard set.
    ShardOutOfRange {
        /// Offending shard id.
        shard: u32,
        /// Number of shards of the live placement.
        num_shards: u32,
    },
    /// A [`PartitionDelta`](crate::partition_map::PartitionDelta) was computed against an
    /// epoch that is no longer live; applying it would silently undo the moves of every
    /// generation installed in between.
    StaleDelta {
        /// Epoch the delta was computed against.
        delta_epoch: u64,
        /// Epoch currently being served.
        live_epoch: u64,
    },
    /// A shard was asked for a key it does not hold (placement corruption; should be
    /// impossible while the snapshot and the shard contents swap atomically together).
    MissingKey {
        /// Key that was not found.
        key: u32,
        /// Shard that was expected to hold it.
        shard: u32,
    },
    /// A multiget came back partial: some keys were unreachable on every replica of their
    /// failover chain. Raised by
    /// [`MultigetResult::require_complete`](crate::MultigetResult::require_complete) for
    /// callers that treat degraded service as an error instead of inspecting the typed
    /// partial result.
    DegradedService {
        /// Number of requested keys that were unreachable on every replica.
        missing: usize,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::KeyOutOfRange { key, num_keys } => {
                write!(f, "key {key} out of range (engine serves {num_keys} keys)")
            }
            ServingError::PartitionMismatch { got, expected } => write!(
                f,
                "partition covers {got} keys but the engine serves {expected}"
            ),
            ServingError::EmptyPartition => write!(f, "partition has no buckets"),
            ServingError::ShardOutOfRange { shard, num_shards } => {
                write!(f, "shard {shard} out of range (placement has {num_shards})")
            }
            ServingError::StaleDelta {
                delta_epoch,
                live_epoch,
            } => write!(
                f,
                "delta computed against epoch {delta_epoch} but epoch {live_epoch} is live"
            ),
            ServingError::MissingKey { key, shard } => {
                write!(f, "shard {shard} is missing key {key} (torn placement)")
            }
            ServingError::DegradedService { missing } => write!(
                f,
                "degraded service: {missing} requested key(s) unreachable on every replica"
            ),
        }
    }
}

impl std::error::Error for ServingError {}

/// Serving failures compose with the unified partitioning API via `?`: a partition computed
/// through the [`shp_core::api`] registry can be installed into the engine inside one
/// `ShpResult` chain.
impl From<ServingError> for shp_core::ShpError {
    fn from(err: ServingError) -> Self {
        match err {
            ServingError::PartitionMismatch { got, expected } => {
                shp_core::ShpError::PartitionMismatch {
                    message: format!(
                        "partition covers {got} keys but the engine serves {expected}"
                    ),
                }
            }
            other => shp_core::ShpError::Runtime(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases = [
            (
                ServingError::KeyOutOfRange {
                    key: 9,
                    num_keys: 4,
                },
                "key 9",
            ),
            (
                ServingError::PartitionMismatch {
                    got: 3,
                    expected: 5,
                },
                "covers 3",
            ),
            (ServingError::EmptyPartition, "no buckets"),
            (
                ServingError::ShardOutOfRange {
                    shard: 7,
                    num_shards: 4,
                },
                "shard 7",
            ),
            (
                ServingError::StaleDelta {
                    delta_epoch: 2,
                    live_epoch: 5,
                },
                "epoch 2",
            ),
            (
                ServingError::MissingKey { key: 2, shard: 1 },
                "missing key 2",
            ),
            (
                ServingError::DegradedService { missing: 3 },
                "degraded service: 3",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
