#ifndef MCOND_GRAPH_COMPOSE_H_
#define MCOND_GRAPH_COMPOSE_H_

#include "core/csr_matrix.h"
#include "core/tensor.h"

namespace mcond {

/// Assembles the block adjacency of Eq. (3)/(11):
///
///   | base    linksᵀ |
///   | links   inter  |
///
/// where `base` is N×N (original A or synthetic A'), `links` is n×N (the
/// incremental adjacency a, or the converted aM), and `inter` is the n×n
/// adjacency among the incoming nodes (the graph-batch ã; pass an empty
/// n×n matrix for the node-batch setting).
CsrMatrix ComposeBlockAdjacency(const CsrMatrix& base, const CsrMatrix& links,
                                const CsrMatrix& inter);

/// The Eq. (3) block-row layout body, shared by the resident and the
/// streamed composition: view row r of `left`, then row left.row_begin + r
/// of `right` with its columns shifted by `offset`. Base rows are
/// [base | N + linksᵀ] (linksᵀ = links.Transpose()), batch rows
/// [links | N + inter]. BlockRowNnz sizes the row; WriteBlockRow writes it
/// and returns the same count.
int64_t BlockRowNnz(const CsrSegmentView& left, int64_t r,
                    const CsrMatrix& right);
int64_t WriteBlockRow(const CsrSegmentView& left, int64_t r,
                      const CsrMatrix& right, int64_t offset, int32_t* cols,
                      float* vals);

/// Stacks base features over incoming-node features: the 𝕏 of Eq. (3)/(11).
Tensor ComposeFeatures(const Tensor& base_features,
                       const Tensor& incoming_features);

}  // namespace mcond

#endif  // MCOND_GRAPH_COMPOSE_H_
