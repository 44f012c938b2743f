from hypothesis import given, settings, strategies as st

from systemt.church import dialogue_tree_int, encode
from systemt.dialogue import Branch, Leaf, Oracle, dialogue_tree, dieval
from systemt.harness import GenConfig, gen_oracle, gen_tree
from systemt.moduli import (
    max_bool_question,
    max_bool_question_int,
    max_question,
    max_question_int,
    max_term,
    modulus,
    modulus_int,
    modulus_uni,
    modulus_uni_int,
    prune,
)
from systemt.set_model import apply_set, eval_set, lift_oracle, natv
from systemt.syntax import NAT, App, arrow, infer, parse, typecheck

identity = lambda i: i


def term(src):
    return typecheck(parse(src))


#: Points of the Cantor space: oracles whose values are all 0 or 1.
bool_oracles = st.builds(
    Oracle,
    st.lists(st.integers(0, 1), max_size=6).map(tuple),
    st.integers(0, 1),
)


# -- max_question and modulus -----------------------------------------------------


def test_max_question_leaf_is_zero():
    for alpha in [identity, Oracle((4, 4), 1)]:
        assert max_question(Leaf(5), alpha) == 0


def test_max_question_single_branch():
    assert max_question(Branch(3, lambda y: Leaf(y)), identity) == 3


def test_max_question_follows_the_answered_path():
    d = dialogue_tree(term("fun (a : nat -> nat) -> a (a 2)"))
    assert max_question(d, identity) == 2
    assert max_question(d, Oracle((0, 0, 9), 0)) == 9  # queries 2 then 9


def test_modulus_examples():
    assert modulus(Leaf(7), identity) == 1  # successor taken unconditionally
    d = dialogue_tree(term("fun (a : nat -> nat) -> a (a 2)"))
    assert modulus(d, identity) == 3


def test_internal_max_question_on_leaf():
    mqi = eval_set(max_question_int())
    out = apply_set(apply_set(mqi, encode(Leaf(5), NAT)), lift_oracle(identity))
    assert out.value == 0


def test_internal_max_question_on_internal_tree():
    t = term("fun (a : nat -> nat) -> a (a 2)")
    v = eval_set(App(max_question_int(), dialogue_tree_int(t, NAT)))
    assert apply_set(v, lift_oracle(identity)).value == 2
    m = eval_set(App(modulus_int(), dialogue_tree_int(t, NAT)))
    assert apply_set(m, lift_oracle(identity)).value == 3


def test_internal_external_max_question_agree_on_trees():
    mqi = eval_set(max_question_int())
    for seed in range(25):
        d = gen_tree(GenConfig(seed=seed))
        enc = apply_set(mqi, encode(d, NAT))
        for oseed in range(4):
            alpha = gen_oracle(GenConfig(seed=500 + oseed))
            assert max_question(d, alpha) == apply_set(enc, lift_oracle(alpha)).value


# -- pruning to the Cantor space ----------------------------------------------


def test_prune_leaf():
    assert prune(Leaf(9)) == Leaf(9)


def test_prune_branch_children_by_bit():
    d = prune(Branch(4, lambda y: Leaf(y)))
    assert isinstance(d, Branch) and d.query == 4
    assert d.children(False) == Leaf(0)
    assert d.children(True) == Leaf(1)


@settings(max_examples=50)
@given(bool_oracles, st.integers(0, 40))
def test_prune_commutes_with_embedding(alpha, seed):
    d = gen_tree(GenConfig(seed=seed))
    assert dieval(prune(d), alpha) == dieval(d, alpha)


# -- uniform max question and modulus ----------------------------------------------


def test_max_bool_question_leaf():
    assert max_bool_question(Leaf(3)) == 0


def test_max_bool_question_whole_tree():
    assert max_bool_question(prune(Branch(4, lambda y: Leaf(y)))) == 4
    wide = Branch(1, lambda y: Branch(5 if y else 2, lambda z: Leaf(z)))
    assert max_bool_question(prune(wide)) == 5  # sees both children, not one path


def test_internal_uniform_max_question_agrees():
    mbqi = eval_set(max_bool_question_int())
    for seed in range(25):
        d = gen_tree(GenConfig(seed=seed))
        assert max_bool_question(prune(d)) == apply_set(mbqi, encode(d, NAT)).value


def test_path_max_never_exceeds_tree_max():
    for seed in range(20):
        d = gen_tree(GenConfig(seed=seed))
        bound = max_bool_question(prune(d))
        for oseed in range(6):
            alpha = Oracle(tuple(int(b) for b in format(oseed, "03b")), int(oseed % 2 == 0))
            assert max_question(d, alpha) <= bound


def test_modulus_uni_examples():
    assert modulus_uni(prune(dialogue_tree(term("fun (a : nat -> nat) -> a 4")))) == 5
    for n in [0, 3, 11]:
        assert modulus_uni(Leaf(n)) == 1


def test_internal_uniform_modulus_on_terms():
    for src in [
        "fun (a : nat -> nat) -> a 4",
        "fun (a : nat -> nat) -> a (a 2)",
        "fun (a : nat -> nat) -> 7",
    ]:
        t = term(src)
        internal = eval_set(App(modulus_uni_int(), dialogue_tree_int(t, NAT))).value
        assert internal == modulus_uni(prune(dialogue_tree(t)))


# -- max_term -----------------------------------------------------------------


def test_max_term_type_and_small_values():
    assert infer(max_term()) == arrow(NAT, NAT, NAT)
    mv = eval_set(max_term())
    for x, y in [(0, 0), (3, 5), (7, 2)]:
        assert apply_set(apply_set(mv, natv(x)), natv(y)).value == max(x, y)


def test_max_term_grid_sample():
    mv = eval_set(max_term())
    for x in range(0, 60, 7):
        fx = apply_set(mv, natv(x))
        for y in range(0, 60, 5):
            assert apply_set(fx, natv(y)).value == max(x, y)
