import pytest

from tabular_automl import slots, synth


@pytest.fixture(scope="session")
def small_regression_csv(tmp_path_factory):
    """A compact numeric regression table for fast CLI/job tests."""
    path = tmp_path_factory.mktemp("data") / "small_reg.csv"
    synth.make_regression_csv(path, n_rows=300, seed=17)
    return str(path)


@pytest.fixture(scope="session")
def sized_csv_factory(tmp_path_factory):
    root = tmp_path_factory.mktemp("sized")
    counter = {"n": 0}

    def make(n_rows, n_cols, seed=0):
        counter["n"] += 1
        path = root / f"sized_{counter['n']}.csv"
        synth.make_sized_csv(path, n_rows=n_rows, n_cols=n_cols, seed=seed)
        return str(path)

    return make


@pytest.fixture
def trial_lease(monkeypatch):
    """This process as a forked trial holding one of two slots; counts borrows."""
    pool = slots.Slots(2)
    lease = pool.lease()
    borrowed = []
    borrow = slots.Lease.borrow

    def counting(self):
        took = borrow(self)
        borrowed.append(took)
        return took

    monkeypatch.setattr(slots.Lease, "borrow", counting)
    monkeypatch.setattr(slots, "current", lease)
    yield lease, borrowed
    lease.close()
    pool.close()
