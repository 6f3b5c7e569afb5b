/**
 * @file
 * A small 0/1 integer linear programming model (paper Section 5).
 *
 * The paper expresses the offloading layout graph as a set of linear
 * equations over binary placement variables and hands them to "any
 * ILP solver". This module is that solver's input language: binary
 * variables, linear constraints (=, <=, >=), and a linear objective.
 */

#ifndef HYDRA_ILP_MODEL_HH
#define HYDRA_ILP_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hydra::ilp {

/** Index of a binary decision variable. */
using VarId = std::size_t;

/** One term of a linear expression: coeff * var. */
struct Term
{
    double coeff = 0.0;
    VarId var = 0;
};

/** A linear expression: sum of terms plus a constant. */
class LinearExpr
{
  public:
    LinearExpr() = default;

    LinearExpr &add(double coeff, VarId var);

    const std::vector<Term> &terms() const { return terms_; }
    double constant() const { return constant_; }

    /** Evaluate under a (partial) assignment; unset vars = 0. */
    double evaluate(const std::vector<std::int8_t> &values) const;

  private:
    std::vector<Term> terms_;
    double constant_ = 0.0;
};

/** Constraint relation. */
enum class Relation { Eq, Le, Ge };

/** expr (rel) rhs. */
struct Constraint
{
    LinearExpr expr;
    Relation rel = Relation::Eq;
    double rhs = 0.0;
    std::string name;
};

/** Optimization direction. */
enum class Sense { Maximize, Minimize };

/** A complete 0/1 ILP instance. */
class Model
{
  public:
    VarId addBinaryVar(std::string name);

    void addConstraint(LinearExpr expr, Relation rel, double rhs,
                       std::string name = {});

    void setObjective(LinearExpr objective, Sense sense);

    std::size_t numVars() const { return varNames_.size(); }
    const std::string &varName(VarId var) const { return varNames_[var]; }
    const std::vector<Constraint> &constraints() const
    {
        return constraints_;
    }
    const LinearExpr &objective() const { return objective_; }
    Sense sense() const { return sense_; }

  private:
    std::vector<std::string> varNames_;
    std::vector<Constraint> constraints_;
    LinearExpr objective_;
    Sense sense_ = Sense::Maximize;
};

} // namespace hydra::ilp

#endif // HYDRA_ILP_MODEL_HH
