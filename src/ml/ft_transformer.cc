#include "ml/ft_transformer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "ml/metrics.h"

namespace memfp::ml {
namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

FtTransformer::FtTransformer(FtTransformerParams params) : params_(params) {}

void FtTransformer::build_parameters(Rng& rng) {
  const auto d = static_cast<std::size_t>(params_.d_model);
  const std::size_t fn = numeric_index_.size();
  const float tok_bound = 1.0f / std::sqrt(static_cast<float>(d));
  numeric_w_ = Param(Tensor::random_uniform(fn, d, tok_bound, rng));
  numeric_b_ = Param(Tensor::random_uniform(fn, d, tok_bound, rng));
  int table_rows = 0;
  table_offsets_.clear();
  for (int card : cardinalities_) {
    table_offsets_.push_back(table_rows);
    table_rows += card;
  }
  cat_table_ = Param(Tensor::random_uniform(
      std::max(table_rows, 1), d, tok_bound, rng));
  cls_ = Param(Tensor::random_uniform(1, d, tok_bound, rng));

  const float bound = 1.0f / std::sqrt(static_cast<float>(d));
  const auto dff = d * static_cast<std::size_t>(params_.ffn_multiplier);
  blocks_.clear();
  for (int i = 0; i < params_.blocks; ++i) {
    Block block;
    block.ln1_gamma = Param(Tensor(1, d, 1.0f));
    block.ln1_beta = Param(Tensor(1, d, 0.0f));
    block.wq = Param(Tensor::random_uniform(d, d, bound, rng));
    block.wk = Param(Tensor::random_uniform(d, d, bound, rng));
    block.wv = Param(Tensor::random_uniform(d, d, bound, rng));
    block.wo = Param(Tensor::random_uniform(d, d, bound, rng));
    block.ln2_gamma = Param(Tensor(1, d, 1.0f));
    block.ln2_beta = Param(Tensor(1, d, 0.0f));
    block.ffn_w1 = Param(Tensor::random_uniform(d, dff, bound, rng));
    block.ffn_b1 = Param(Tensor(1, dff, 0.0f));
    block.ffn_w2 = Param(Tensor::random_uniform(
        dff, d, 1.0f / std::sqrt(static_cast<float>(dff)), rng));
    block.ffn_b2 = Param(Tensor(1, d, 0.0f));
    blocks_.push_back(std::move(block));
  }
  final_gamma_ = Param(Tensor(1, d, 1.0f));
  final_beta_ = Param(Tensor(1, d, 0.0f));
  head_w_ = Param(Tensor::random_uniform(d, 1, bound, rng));
  head_b_ = Param(Tensor(1, 1, 0.0f));
}

std::vector<Param*> FtTransformer::all_params() {
  std::vector<Param*> params{&numeric_w_, &numeric_b_, &cat_table_, &cls_};
  for (Block& block : blocks_) {
    for (Param* p :
         {&block.ln1_gamma, &block.ln1_beta, &block.wq, &block.wk, &block.wv,
          &block.wo, &block.ln2_gamma, &block.ln2_beta, &block.ffn_w1,
          &block.ffn_b1, &block.ffn_w2, &block.ffn_b2}) {
      params.push_back(p);
    }
  }
  params.push_back(&final_gamma_);
  params.push_back(&final_beta_);
  params.push_back(&head_w_);
  params.push_back(&head_b_);
  return params;
}

std::vector<const Param*> FtTransformer::all_params() const {
  auto* self = const_cast<FtTransformer*>(this);
  std::vector<Param*> params = self->all_params();
  return {params.begin(), params.end()};
}

void FtTransformer::preprocess(std::span<const float> row,
                               std::vector<float>& numeric,
                               std::vector<int>& codes) const {
  for (std::size_t i = 0; i < numeric_index_.size(); ++i) {
    const float raw = row[numeric_index_[i]];
    numeric.push_back((raw - numeric_mean_[i]) / numeric_std_[i]);
  }
  for (std::size_t i = 0; i < categorical_index_.size(); ++i) {
    const int code = static_cast<int>(row[categorical_index_[i]]);
    codes.push_back(std::clamp(code, 0, cardinalities_[i] - 1));
  }
}

int FtTransformer::forward(Graph& graph, const BoundParams& bound,
                           const Tensor& numeric,
                           const std::vector<int>& codes, std::size_t batch,
                           bool train, Rng& rng) const {
  // Parameter binding order must match all_params().
  std::size_t k = 0;
  const int numeric_w = bound.id(k++);
  const int numeric_b = bound.id(k++);
  const int cat_table = bound.id(k++);
  const int cls = bound.id(k++);
  struct BlockIds {
    int ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b, w1, b1, w2, b2;
  };
  std::vector<BlockIds> block_ids;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    BlockIds ids{};
    ids.ln1_g = bound.id(k++);
    ids.ln1_b = bound.id(k++);
    ids.wq = bound.id(k++);
    ids.wk = bound.id(k++);
    ids.wv = bound.id(k++);
    ids.wo = bound.id(k++);
    ids.ln2_g = bound.id(k++);
    ids.ln2_b = bound.id(k++);
    ids.w1 = bound.id(k++);
    ids.b1 = bound.id(k++);
    ids.w2 = bound.id(k++);
    ids.b2 = bound.id(k++);
    block_ids.push_back(ids);
  }
  const int final_g = bound.id(k++);
  const int final_b = bound.id(k++);
  const int head_w = bound.id(k++);
  const int head_b = bound.id(k++);

  const auto fn = static_cast<int>(numeric_index_.size());
  const auto fc = static_cast<int>(categorical_index_.size());
  const int tokens = 1 + fn + fc;
  const float drop = train ? static_cast<float>(params_.dropout) : 0.0f;

  const int num_tok = graph.numeric_tokens(numeric, numeric_w, numeric_b);
  std::vector<int> parts{num_tok};
  std::vector<int> tokens_per_part{fn};
  if (fc > 0) {
    parts.push_back(graph.categorical_tokens(codes,
                                             static_cast<std::size_t>(fc),
                                             cat_table, table_offsets_));
    tokens_per_part.push_back(fc);
  }
  int x = graph.concat_tokens(cls, parts, tokens_per_part, batch);

  for (const BlockIds& ids : block_ids) {
    const int h = graph.layernorm(x, ids.ln1_g, ids.ln1_b);
    const int q = graph.matmul(h, ids.wq);
    const int key = graph.matmul(h, ids.wk);
    const int v = graph.matmul(h, ids.wv);
    int attn = graph.attention(q, key, v, tokens, params_.heads);
    attn = graph.matmul(attn, ids.wo);
    if (drop > 0.0f) attn = graph.dropout(attn, drop, rng);
    x = graph.add(x, attn);

    const int h2 = graph.layernorm(x, ids.ln2_g, ids.ln2_b);
    int f = graph.matmul(h2, ids.w1);
    f = graph.add_rowvec(f, ids.b1);
    f = graph.gelu(f);
    if (drop > 0.0f) f = graph.dropout(f, drop, rng);
    f = graph.matmul(f, ids.w2);
    f = graph.add_rowvec(f, ids.b2);
    x = graph.add(x, f);
  }

  const int final = graph.layernorm(x, final_g, final_b);
  const int cls_rows = graph.select_token(final, tokens, 0);
  int logits = graph.matmul(cls_rows, head_w);
  logits = graph.add_rowvec(logits, head_b);
  return logits;
}

void FtTransformer::fit(const Dataset& train, Rng& rng) {
  // Feature partition from the dataset's categorical metadata.
  numeric_index_.clear();
  categorical_index_.clear();
  cardinalities_.clear();
  const std::vector<std::size_t>& cats = train.categorical;
  for (std::size_t f = 0; f < train.x.cols(); ++f) {
    if (std::find(cats.begin(), cats.end(), f) != cats.end()) {
      categorical_index_.push_back(f);
    } else {
      numeric_index_.push_back(f);
    }
  }
  // Cardinalities from the data (max code + 1).
  for (std::size_t i = 0; i < categorical_index_.size(); ++i) {
    int card = 2;
    for (std::size_t r = 0; r < train.size(); ++r) {
      card = std::max(card,
                      static_cast<int>(train.x.at(r, categorical_index_[i])) +
                          1);
    }
    cardinalities_.push_back(card);
  }
  // Standardization statistics.
  numeric_mean_.assign(numeric_index_.size(), 0.0f);
  numeric_std_.assign(numeric_index_.size(), 1.0f);
  for (std::size_t i = 0; i < numeric_index_.size(); ++i) {
    double sum = 0.0, sq = 0.0;
    for (std::size_t r = 0; r < train.size(); ++r) {
      const double v = train.x.at(r, numeric_index_[i]);
      sum += v;
      sq += v * v;
    }
    const double n = std::max<double>(1.0, static_cast<double>(train.size()));
    const double mean = sum / n;
    const double var = std::max(1e-8, sq / n - mean * mean);
    numeric_mean_[i] = static_cast<float>(mean);
    numeric_std_[i] = static_cast<float>(std::sqrt(var));
  }

  build_parameters(rng);

  // Row subsample: keep all positives, cap the total.
  std::vector<std::size_t> rows;
  std::vector<std::size_t> negatives;
  for (std::size_t r = 0; r < train.size(); ++r) {
    if (train.y[r] == 1) rows.push_back(r);
    else negatives.push_back(r);
  }
  rng.shuffle(negatives);
  for (std::size_t r : negatives) {
    if (rows.size() >= params_.max_train_rows) break;
    rows.push_back(r);
  }
  rng.shuffle(rows);

  // Validation split for early stopping.
  const std::size_t val_count = static_cast<std::size_t>(
      static_cast<double>(rows.size()) * params_.validation_fraction);
  std::vector<std::size_t> val_rows(rows.begin(),
                                    rows.begin() + static_cast<std::ptrdiff_t>(
                                                       val_count));
  std::vector<std::size_t> fit_rows(rows.begin() + static_cast<std::ptrdiff_t>(
                                                       val_count),
                                    rows.end());

  Adam adam({params_.lr, 0.9, 0.999, 1e-8, params_.weight_decay});
  const auto batch_rows = static_cast<std::size_t>(params_.batch_size);

  // The validation fold is fixed across epochs: stage its matrix and labels
  // once instead of re-materializing them for every early-stopping check.
  Matrix val_x;
  std::vector<int> val_labels;
  for (std::size_t r : val_rows) {
    val_x.push_row(train.x.row(r));
    val_labels.push_back(train.y[r]);
  }

  double best_val = 1e30;
  int bad_epochs = 0;
  // Snapshot of the best parameters (values only).
  std::vector<Tensor> best_values;
  const auto snapshot = [&] {
    best_values.clear();
    for (Param* p : all_params()) best_values.push_back(p->value);
  };
  const auto restore = [&] {
    if (best_values.empty()) return;
    std::size_t i = 0;
    for (Param* p : all_params()) p->value = best_values[i++];
  };

  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    rng.shuffle(fit_rows);
    for (std::size_t start = 0; start < fit_rows.size();
         start += batch_rows) {
      const std::size_t stop = std::min(start + batch_rows, fit_rows.size());
      const std::size_t batch = stop - start;
      Tensor numeric(batch, numeric_index_.size());
      std::vector<int> codes;
      std::vector<float> targets, weights;
      codes.reserve(batch * categorical_index_.size());
      std::vector<float> numeric_row;
      for (std::size_t i = 0; i < batch; ++i) {
        const std::size_t r = fit_rows[start + i];
        numeric_row.clear();
        std::vector<int> row_codes;
        preprocess(train.x.row(r), numeric_row, row_codes);
        for (std::size_t c = 0; c < numeric_row.size(); ++c) {
          numeric(i, c) = numeric_row[c];
        }
        codes.insert(codes.end(), row_codes.begin(), row_codes.end());
        targets.push_back(train.y[r] == 1 ? 1.0f : 0.0f);
        weights.push_back(train.weight[r]);
      }

      Graph graph;
      BoundParams bound(graph, all_params());
      const int logits =
          forward(graph, bound, numeric, codes, batch, /*train=*/true, rng);
      const int loss = graph.bce_with_logits(logits, targets, weights);
      graph.backward(loss);
      adam.begin_step();
      bound.apply(adam);
    }

    // Early stopping on validation logloss.
    if (!val_rows.empty()) {
      const std::vector<double> scores = predict_batch(val_x);
      const double loss = log_loss(scores, val_labels);
      MEMFP_DEBUG << "ft-transformer epoch " << epoch << " val logloss "
                  << loss;
      if (loss < best_val - 1e-5) {
        best_val = loss;
        bad_epochs = 0;
        snapshot();
      } else if (++bad_epochs >= params_.early_stopping_epochs) {
        break;
      }
    }
  }
  restore();
  fitted_ = true;
}

std::vector<double> FtTransformer::predict_batch(const Matrix& x) const {
  std::vector<double> scores(x.rows(), 0.0);
  if (!fitted_ || x.rows() == 0) return scores;
  // Fixed 512-row chunks on the pool, each writing only its own slots: the
  // chunking depends on x alone and a row's score does not depend on the
  // other rows of its chunk, so the scores are bit-identical at any thread
  // count (and to per-row predict).
  constexpr std::size_t kChunk = 512;
  // forward draws from the rng only for dropout, which inference skips, so
  // the chunks share one that is never touched.
  Rng unused(1);
  ThreadPool::global().parallel_for_chunks(
      x.rows(),
      [&](std::size_t start, std::size_t stop) {
        const std::size_t batch = stop - start;
        Tensor numeric(batch, numeric_index_.size());
        std::vector<int> codes;
        std::vector<float> numeric_row;
        for (std::size_t i = 0; i < batch; ++i) {
          numeric_row.clear();
          std::vector<int> row_codes;
          preprocess(x.row(start + i), numeric_row, row_codes);
          for (std::size_t c = 0; c < numeric_row.size(); ++c) {
            numeric(i, c) = numeric_row[c];
          }
          codes.insert(codes.end(), row_codes.begin(), row_codes.end());
        }
        Graph graph;
        auto* self = const_cast<FtTransformer*>(this);
        BoundParams bound(graph, self->all_params());
        const int logits = forward(graph, bound, numeric, codes, batch,
                                   /*train=*/false, unused);
        const Tensor& z = graph.value(logits);
        for (std::size_t i = 0; i < batch; ++i) {
          scores[start + i] = sigmoid(z(i, 0));
        }
      },
      kChunk);
  return scores;
}

double FtTransformer::predict(std::span<const float> features) const {
  Matrix x;
  x.push_row(features);
  return predict_batch(x).front();
}

Json FtTransformer::to_json() const {
  // Weight dump: shapes plus flattened values, enough for registry storage.
  Json out = Json::object();
  out.set("type", "ft_transformer");
  out.set("d_model", params_.d_model);
  out.set("blocks", static_cast<int>(blocks_.size()));
  Json tensors = Json::array();
  for (const Param* p : all_params()) {
    Json t = Json::object();
    t.set("rows", p->value.rows());
    t.set("cols", p->value.cols());
    Json data = Json::array();
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      data.push_back(static_cast<double>(p->value.data()[i]));
    }
    t.set("data", std::move(data));
    tensors.push_back(std::move(t));
  }
  out.set("tensors", std::move(tensors));
  return out;
}

}  // namespace memfp::ml
