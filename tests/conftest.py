from pathlib import Path

import pytest

from enclavemine.logio import load_csv

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def hospital_log():
    return load_csv(DATA / "hospital.csv")


@pytest.fixture(scope="session")
def pharma_log():
    return load_csv(DATA / "pharma.csv", iid_column="HospitalCaseID")


@pytest.fixture(scope="session")
def clinic_log():
    return load_csv(DATA / "clinic.csv", iid_column="TreatmentID")


@pytest.fixture(scope="session")
def three_partitions(hospital_log, pharma_log, clinic_log):
    return {"hospital": hospital_log, "pharma": pharma_log, "clinic": clinic_log}
