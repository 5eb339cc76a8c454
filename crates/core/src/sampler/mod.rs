//! The `Sampler` spanner-construction algorithm (Sections 3–5 of the paper).
//!
//! `Sampler` builds an `O(3^k)`-spanner with `Õ(n^{1+1/(2^{k+1}-1)})` edges
//! in `O(3^k h)` rounds while sending only `Õ(n^{1+1/(2^{k+1}-1)+1/h})`
//! messages (Theorem 2). The module contains:
//!
//! * [`centralized`] — the faithful implementation of Pseudocode 1 & 2,
//!   replayed with the distributed cost accounting of Section 5;
//! * [`hierarchy`] — the cluster trees `T_j(v)` maintained across levels;
//! * [`cost`] — the explicit instantiation of Section 5's `O(1)` constants;
//! * [`distributed`] — a genuine message-passing implementation of the
//!   level-0 procedure `Cluster_0` running on the synchronous runtime,
//!   cross-checked against the centralized replay;
//! * [`figure1`] — a step-by-step trace of `Cluster_j` mirroring Figure 1.

pub mod centralized;
pub mod cost;
pub mod distributed;
pub mod figure1;
pub mod hierarchy;

pub use centralized::{LevelReport, Sampler, SamplerOutcome};
pub use cost::{DistributedCostModel, LevelActivity};
pub use figure1::{Figure1Trace, LevelTrace};
pub use hierarchy::{ClusterInfo, LevelTreeStats};

// Re-export the parameter types here as well: `use freelunch_core::sampler::…`
// should be a one-stop import for users of the algorithm.
pub use crate::params::{ConstantPolicy, FallbackPolicy, SamplerParams};

use serde::{Deserialize, Serialize};

/// Classification of a node at the end of the sampling step of `Cluster_j`
/// (Lemma 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeClass {
    /// The node queried *all* of its neighbors (its unexplored edge set was
    /// emptied).
    Light,
    /// The node queried at least `c·n^{2^j δ}·log n` neighbors without
    /// exhausting its edges.
    Heavy,
    /// Neither light nor heavy after `2h` trials — the low-probability event
    /// Lemma 6 bounds. Depending on the
    /// [`FallbackPolicy`], such nodes are
    /// either upgraded to light (by querying their remaining edges) or left
    /// as is.
    Ambiguous,
}

impl NodeClass {
    /// Returns `true` for [`NodeClass::Light`].
    pub(crate) fn is_light(self) -> bool {
        matches!(self, NodeClass::Light)
    }

    /// Returns `true` for [`NodeClass::Heavy`].
    pub(crate) fn is_heavy(self) -> bool {
        matches!(self, NodeClass::Heavy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_class_predicates() {
        assert!(NodeClass::Light.is_light());
        assert!(!NodeClass::Light.is_heavy());
        assert!(NodeClass::Heavy.is_heavy());
        assert!(!NodeClass::Ambiguous.is_light());
        assert!(!NodeClass::Ambiguous.is_heavy());
    }
}
