//! Classification substrate for FeMux's forecaster selection (§4.3.4).
//!
//! The offline pipeline standardizes block features with
//! [`scaler::StandardScaler`], clusters them with [`kmeans::KMeans`]
//! (k-means++ initialization, multiple restarts), and assigns each
//! cluster the forecaster with the lowest summed RUM over member blocks.
//! The cluster-level assignment tolerates individually mislabelled
//! blocks, the paper's reason for clustering over a supervised model.

pub mod kmeans;
pub mod scaler;

pub use kmeans::{KMeans, KMeansConfig};
pub use scaler::StandardScaler;

/// Assigns each k-means cluster the label (forecaster index) with the
/// lowest summed cost over the cluster's member blocks, and returns the
/// per-cluster assignment plus the global default label (lowest total
/// cost overall — used when a block cannot be classified).
///
/// `costs[row][label]` is the cost of serving block `row` with
/// forecaster `label` (for FeMux: the block's RUM under that
/// forecaster).
///
/// # Panics
///
/// Panics if `assignments` and `costs` disagree in length, if `costs`
/// is empty or ragged.
pub fn assign_clusters(
    assignments: &[usize],
    costs: &[Vec<f64>],
    n_clusters: usize,
) -> (Vec<usize>, usize) {
    assert_eq!(assignments.len(), costs.len(), "length mismatch");
    assert!(!costs.is_empty(), "need at least one block");
    let n_labels = costs[0].len();
    assert!(
        costs.iter().all(|c| c.len() == n_labels),
        "ragged cost matrix"
    );
    let mut cluster_costs = vec![vec![0.0f64; n_labels]; n_clusters];
    let mut total_costs = vec![0.0f64; n_labels];
    for (&cluster, row) in assignments.iter().zip(costs) {
        for (label, &cost) in row.iter().enumerate() {
            cluster_costs[cluster][label] += cost;
            total_costs[label] += cost;
        }
    }
    let argmin = |v: &[f64]| -> usize {
        v.iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.partial_cmp(b.1).expect("costs must not be NaN")
            })
            .map(|(i, _)| i)
            .unwrap_or(0)
    };
    let per_cluster: Vec<usize> =
        cluster_costs.iter().map(|c| argmin(c)).collect();
    (per_cluster, argmin(&total_costs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_pick_lowest_sum() {
        // Two clusters; label 1 best for cluster 0, label 0 for cluster 1.
        let assignments = vec![0, 0, 1, 1];
        let costs = vec![
            vec![5.0, 1.0],
            vec![5.0, 1.0],
            vec![1.0, 5.0],
            vec![1.0, 5.0],
        ];
        let (per_cluster, default) =
            assign_clusters(&assignments, &costs, 2);
        assert_eq!(per_cluster, vec![1, 0]);
        // Totals tie at 12 each; argmin picks the first.
        assert_eq!(default, 0);
    }

    #[test]
    fn cluster_assignment_tolerates_outlier_blocks() {
        // One block in cluster 0 prefers label 0, but the cluster as a
        // whole prefers label 1 — the paper's robustness argument.
        let assignments = vec![0, 0, 0];
        let costs = vec![
            vec![0.0, 10.0], // outlier
            vec![9.0, 1.0],
            vec![9.0, 1.0],
        ];
        let (per_cluster, _) = assign_clusters(&assignments, &costs, 1);
        assert_eq!(per_cluster[0], 1);
    }

    #[test]
    fn empty_cluster_gets_some_label() {
        let assignments = vec![0, 0];
        let costs = vec![vec![1.0, 2.0], vec![1.0, 2.0]];
        let (per_cluster, default) =
            assign_clusters(&assignments, &costs, 3);
        assert_eq!(per_cluster.len(), 3);
        // Empty clusters fall back to label 0 (all-zero sums).
        assert_eq!(per_cluster[2], 0);
        assert_eq!(default, 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        assign_clusters(&[0], &[], 1);
    }
}
