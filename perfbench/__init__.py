"""End-to-end benchmark of the ADVM regression stack (``run.py``)."""
