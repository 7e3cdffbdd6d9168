"""The serving benchmark of the CXRPQ query service (see ``run.py``)."""
