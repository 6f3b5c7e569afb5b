#include "ilp/model.hh"

#include <cassert>

namespace hydra::ilp {

LinearExpr &
LinearExpr::add(double coeff, VarId var)
{
    terms_.push_back(Term{coeff, var});
    return *this;
}

double
LinearExpr::evaluate(const std::vector<std::int8_t> &values) const
{
    double out = constant_;
    for (const Term &term : terms_) {
        assert(term.var < values.size());
        if (values[term.var] == 1)
            out += term.coeff;
    }
    return out;
}

VarId
Model::addBinaryVar(std::string name)
{
    varNames_.push_back(std::move(name));
    return varNames_.size() - 1;
}

void
Model::addConstraint(LinearExpr expr, Relation rel, double rhs,
                     std::string name)
{
    constraints_.push_back(
        Constraint{std::move(expr), rel, rhs, std::move(name)});
}

void
Model::setObjective(LinearExpr objective, Sense sense)
{
    objective_ = std::move(objective);
    sense_ = sense;
}

} // namespace hydra::ilp
